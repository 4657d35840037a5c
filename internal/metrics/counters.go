package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ServerCounters aggregates the monotonically increasing throughput counters
// of the online monitoring server: how many events and batches it ingested,
// how many precedence queries it answered, and how much protocol traffic
// (frames, text lines, errors, connections) it saw. All fields are updated
// with atomic operations, so producers on many connection goroutines can
// bump them without sharing the monitor's locks.
type ServerCounters struct {
	EventsIngested  atomic.Int64 // events accepted into the collector
	BatchesIngested atomic.Int64 // EVENTS frames / batch submissions accepted
	QueriesAnswered atomic.Int64 // individual PRECEDES/CONCURRENT answers
	QueryFrames     atomic.Int64 // QUERY frames / query lines served
	FramesRead      atomic.Int64 // v2 frames decoded (any type)
	LinesRead       atomic.Int64 // v1 text lines handled
	ProtocolErrors  atomic.Int64 // malformed or rejected frames/lines
	ConnsAccepted   atomic.Int64 // connections admitted
	ConnsRejected   atomic.Int64 // connections refused at the MaxConns limit
}

// Snapshot captures a consistent-enough point-in-time copy of the counters
// (each field is read atomically; the set is not a global atomic snapshot,
// which is fine for monotonic throughput accounting).
func (c *ServerCounters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		EventsIngested:  c.EventsIngested.Load(),
		BatchesIngested: c.BatchesIngested.Load(),
		QueriesAnswered: c.QueriesAnswered.Load(),
		QueryFrames:     c.QueryFrames.Load(),
		FramesRead:      c.FramesRead.Load(),
		LinesRead:       c.LinesRead.Load(),
		ProtocolErrors:  c.ProtocolErrors.Load(),
		ConnsAccepted:   c.ConnsAccepted.Load(),
		ConnsRejected:   c.ConnsRejected.Load(),
	}
}

// CounterSnapshot is a plain-integer copy of ServerCounters.
type CounterSnapshot struct {
	EventsIngested  int64
	BatchesIngested int64
	QueriesAnswered int64
	QueryFrames     int64
	FramesRead      int64
	LinesRead       int64
	ProtocolErrors  int64
	ConnsAccepted   int64
	ConnsRejected   int64
}

// Sub returns the counter deltas s - earlier, for interval rates.
func (s CounterSnapshot) Sub(earlier CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		EventsIngested:  s.EventsIngested - earlier.EventsIngested,
		BatchesIngested: s.BatchesIngested - earlier.BatchesIngested,
		QueriesAnswered: s.QueriesAnswered - earlier.QueriesAnswered,
		QueryFrames:     s.QueryFrames - earlier.QueryFrames,
		FramesRead:      s.FramesRead - earlier.FramesRead,
		LinesRead:       s.LinesRead - earlier.LinesRead,
		ProtocolErrors:  s.ProtocolErrors - earlier.ProtocolErrors,
		ConnsAccepted:   s.ConnsAccepted - earlier.ConnsAccepted,
		ConnsRejected:   s.ConnsRejected - earlier.ConnsRejected,
	}
}

// Rates converts the snapshot into per-second throughput over elapsed.
// A non-positive elapsed yields zero rates.
func (s CounterSnapshot) Rates(elapsed time.Duration) ThroughputRates {
	secs := elapsed.Seconds()
	if secs <= 0 {
		return ThroughputRates{}
	}
	return ThroughputRates{
		EventsPerSec:  float64(s.EventsIngested) / secs,
		BatchesPerSec: float64(s.BatchesIngested) / secs,
		QueriesPerSec: float64(s.QueriesAnswered) / secs,
	}
}

// ThroughputRates is the per-second view of a counter interval.
type ThroughputRates struct {
	EventsPerSec  float64
	BatchesPerSec float64
	QueriesPerSec float64
}

// ParseSnapshot recovers a CounterSnapshot from a STATS response body (the
// inverse of String; unknown keys are ignored). ok reports whether at least
// one counter key was present — a remote speaking an older STATS dialect
// yields ok == false rather than a zero snapshot masquerading as data.
// This is what lets poquery -watch compute interval rates with Sub against
// any running daemon, without a side channel.
func ParseSnapshot(body string) (snap CounterSnapshot, ok bool) {
	for _, field := range strings.Fields(body) {
		eq := strings.IndexByte(field, '=')
		if eq <= 0 {
			continue
		}
		v, err := strconv.ParseInt(field[eq+1:], 10, 64)
		if err != nil {
			continue
		}
		switch field[:eq] {
		case "ingested":
			snap.EventsIngested = v
		case "batches":
			snap.BatchesIngested = v
		case "queries":
			snap.QueriesAnswered = v
		case "qframes":
			snap.QueryFrames = v
		case "frames":
			snap.FramesRead = v
		case "lines":
			snap.LinesRead = v
		case "proto_errors":
			snap.ProtocolErrors = v
		case "conns":
			snap.ConnsAccepted = v
		case "rejected":
			snap.ConnsRejected = v
		default:
			continue
		}
		ok = true
	}
	return snap, ok
}

// TenantCounters is the per-namespace subset of a STATS body: the
// tenant-labelled ingest and query totals. It feeds poquery -watch's
// per-tenant rate lines the same way CounterSnapshot feeds the global ones.
type TenantCounters struct {
	Events  int64
	Queries int64
}

// ParseTenantCounters extracts the tenant_events{tenant="name"}=N and
// tenant_queries{tenant="name"}=N fields of a STATS body, keyed by tenant
// name. Tenant names are [a-zA-Z0-9_-], so a field holds no space and no
// escape and splits like any other. The map is empty (never nil) for bodies
// from daemons that predate tenant-labelled STATS.
func ParseTenantCounters(body string) map[string]TenantCounters {
	out := make(map[string]TenantCounters)
	for _, field := range strings.Fields(body) {
		key, rest, ok := strings.Cut(field, `{tenant="`)
		if !ok {
			continue
		}
		tenant, num, ok := strings.Cut(rest, `"}=`)
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue
		}
		tc := out[tenant]
		switch key {
		case "tenant_events":
			tc.Events = v
		case "tenant_queries":
			tc.Queries = v
		default:
			continue
		}
		out[tenant] = tc
	}
	return out
}

// String renders the snapshot in the key=value style of the server's STATS
// surface, so it can be appended verbatim to a STATS response.
func (s CounterSnapshot) String() string {
	return fmt.Sprintf(
		"ingested=%d batches=%d queries=%d qframes=%d frames=%d lines=%d proto_errors=%d conns=%d rejected=%d",
		s.EventsIngested, s.BatchesIngested, s.QueriesAnswered, s.QueryFrames,
		s.FramesRead, s.LinesRead, s.ProtocolErrors, s.ConnsAccepted, s.ConnsRejected)
}
