package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// This file implements first-class tenants (namespaces): many independent
// computations served by one daemon. Each tenant owns a full serving stack —
// one sharded Monitor pipeline, one Collector, and (when the daemon is
// durable) its own write-ahead journal and replay plane — so two tenants can
// stream colliding process IDs and event indexes without ever observing each
// other's timestamps, statistics, or recovered history.
//
// A connection is scoped to exactly one tenant at a time: a TENANT frame
// selects the namespace every subsequent EVENTS/QUERY/QUERY@/STATS exchange
// routes to. A connection that
// never selects one speaks to the DefaultTenant namespace, which keeps every
// pre-tenant client, test, and fuzz corpus byte-compatible.
//
// Tenants are created lazily on first selection through TenantsConfig.New,
// bounded by MaxTenants and the per-tenant event quota; both limits reject
// with an error wrapping ErrTenantQuota so clients can classify the refusal.

// DefaultTenant is the namespace a connection is scoped to until it selects
// another one. It always exists.
const DefaultTenant = "default"

// DefaultMaxTenants bounds the live namespaces when TenantsConfig.MaxTenants
// is zero.
const DefaultMaxTenants = 64

// ErrTenantQuota marks a rejection by a tenant resource bound: the namespace
// count hit MaxTenants, or a tenant's event quota is exhausted. Wrapped
// errors carry the specifics; classify with errors.Is.
var ErrTenantQuota = errors.New("monitor: tenant quota exceeded")

// maxTenantNameLen bounds tenant names; they double as WAL directory names.
const maxTenantNameLen = 64

// ValidTenantName reports whether name is an acceptable namespace name:
// 1-64 characters from [a-zA-Z0-9_-]. The alphabet is restricted because a
// tenant name doubles as its WAL subdirectory name on a durable daemon.
func ValidTenantName(name string) bool {
	if len(name) == 0 || len(name) > maxTenantNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// TenantResources is the per-namespace serving stack a TenantsConfig.New
// factory hands the server. Monitor is required; the rest is optional.
type TenantResources struct {
	// Monitor is the tenant's ingest pipeline and live query surface.
	Monitor *Monitor
	// Journal, when non-nil, receives every deliverable run before it is
	// applied to the monitor (write-ahead durability); its counters are
	// appended to the tenant's STATS responses. internal/wal.Log is the
	// production implementation.
	Journal RunJournal
	// History, when non-nil, serves the tenant's QUERY@ frames: precedence
	// queries answered against recorded history as of an event-count
	// cutoff. internal/replay.Store is the production implementation: it
	// clamps a store to the watermark a count of the log gives, in the
	// daemon the tenant's own (replay.OpenLive), offline one it stamps
	// from the log (replay.Open). A tenant without one rejects QUERY@ with
	// an ERR frame.
	History HistoryProvider
	// WALEvents, when non-nil, reports the events appended to the tenant's
	// journal so far; it backs the tenant-labelled WAL series on /metrics.
	WALEvents func() uint64
	// Spans, when non-nil, is the span scope shared with the tenant's
	// write-ahead journal (wal.Options.Spans): the collector installs each
	// sampled batch's trace there around the journal append, so the WAL
	// records wal_append/wal_fsync spans on it.
	Spans *obs.SpanScope
	// Close, when non-nil, releases the resources (stamping lanes, WAL file
	// handles, replay mappings); the server calls it once, during
	// Server.Close, or at once when the factory returned no Monitor. A nil
	// Close leaves the resources with the factory's caller.
	Close func() error
}

// TenantsConfig is a Server's tenant factory and quotas.
type TenantsConfig struct {
	// New builds the serving resources for a namespace. It is called at
	// most once per name, under the server's tenant lock (creations
	// serialize — deliberate, since a durable factory replays the tenant's
	// WAL). Required; it builds the default namespace too.
	New func(name string) (TenantResources, error)
	// MaxTenants bounds the live namespaces, the default one included.
	// Zero selects DefaultMaxTenants. Exceeding it rejects the selecting
	// connection with an error wrapping ErrTenantQuota.
	MaxTenants int
	// MaxEventsPerTenant caps the events each namespace may accept into
	// its collector (recovered events count). Zero means unlimited.
	// An over-quota batch is rejected whole with an error wrapping
	// ErrTenantQuota; nothing is partially applied.
	MaxEventsPerTenant int64
}

func (c *TenantsConfig) maxTenants() int {
	if c.MaxTenants <= 0 {
		return DefaultMaxTenants
	}
	return c.MaxTenants
}

// Tenant is one live namespace: its serving stack plus the per-tenant
// throughput accounting behind the tenant-labelled /metrics series.
type Tenant struct {
	name      string
	monitor   *Monitor
	collector *Collector
	journal   RunJournal
	history   HistoryProvider
	walEvents func() uint64
	closeRes  func() error // nil: the resources stay with the factory's caller
	maxEvents int64        // 0 = unlimited

	accepted atomic.Int64 // events accepted into the collector (recovery-seeded)
	queries  atomic.Int64 // individual queries answered for this namespace
}

// Name returns the namespace name.
func (t *Tenant) Name() string { return t.name }

// Monitor exposes the tenant's monitor (live query surface and accounting).
func (t *Tenant) Monitor() *Monitor { return t.monitor }

// Held returns the events buffered in the tenant's collector.
func (t *Tenant) Held() int { return t.collector.Held() }

// newTenant wires one namespace's serving stack: a pipelined collector over
// the monitor, the journal attached write-ahead, and the shared telemetry
// instruments.
func (s *Server) newTenant(name string, res TenantResources) *Tenant {
	collector := NewCollector(res.Monitor)
	collector.journal = res.Journal
	collector.spans = res.Spans
	// Pipelined, SubmitBatch returns once the run is with the plan stage, so
	// the ingest goroutine decodes and journals the next run while the lanes
	// stamp this one. The server still keeps "an acknowledged event is
	// queryable" because Server.answer calls IngestBarrier
	// before every live query. A bare NewCollector's caller has no such
	// barrier (the frozen benchmark's collector rungs query right after
	// SubmitBatch returns), so there SubmitBatch waits for its run to publish:
	// read-your-writes is the default.
	collector.pipelined = true
	t := &Tenant{
		name:      name,
		monitor:   res.Monitor,
		collector: collector,
		journal:   res.Journal,
		history:   res.History,
		walEvents: res.WALEvents,
		closeRes:  res.Close,
		maxEvents: s.cfg.Tenants.MaxEventsPerTenant,
	}
	// Recovered events count against the quota: the namespace's durable
	// history is part of its footprint.
	t.accepted.Store(int64(res.Monitor.pipe.Result().Events))
	if s.obs != nil {
		collector.deliverHist = s.obs.DeliverBatch
		collector.runHist = s.obs.RunEvents
		if s.obs.CrossShardWait != nil {
			res.Monitor.Pipeline().SetWaitObserver(s.obs.CrossShardWait)
		}
		if s.obs.PlanQueueDepth != nil {
			res.Monitor.Pipeline().SetPlanQueueObserver(s.obs.PlanQueueDepth)
		}
	}
	return t
}

// Tenant returns the namespace registered under name, creating it through
// the tenant factory on first use. An empty name selects the default
// namespace. Creation fails with an error wrapping ErrTenantQuota once
// MaxTenants namespaces are live, and with a plain error when the name is
// invalid or the factory fails.
func (s *Server) Tenant(name string) (*Tenant, error) {
	if name == "" {
		name = DefaultTenant
	}
	if !ValidTenantName(name) {
		return nil, fmt.Errorf("monitor: invalid tenant name %q (want 1-%d chars of [a-zA-Z0-9_-])", name, maxTenantNameLen)
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if s.closedForTenants() {
		return nil, ErrClosed
	}
	tc := s.cfg.Tenants
	if len(s.tenants) >= tc.maxTenants() {
		return nil, fmt.Errorf("monitor: tenant %q: %d namespaces live, limit %d: %w",
			name, len(s.tenants), tc.maxTenants(), ErrTenantQuota)
	}
	res, err := tc.New(name)
	if err != nil {
		return nil, fmt.Errorf("monitor: creating tenant %q: %w", name, err)
	}
	if res.Monitor == nil {
		if res.Close != nil {
			res.Close()
		}
		return nil, fmt.Errorf("monitor: tenant factory returned no monitor for %q", name)
	}
	t := s.newTenant(name, res)
	s.tenants[name] = t
	return t, nil
}

// closedForTenants reports whether the server has been closed (taken under
// tenantMu; the serving mutex is separate).
func (s *Server) closedForTenants() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Lookup returns the namespace registered under name without creating it.
func (s *Server) Lookup(name string) (*Tenant, bool) {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t, ok := s.tenants[name]
	return t, ok
}

// Tenants returns the live namespaces sorted by name.
func (s *Server) Tenants() []*Tenant {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NumTenants returns the number of live namespaces.
func (s *Server) NumTenants() int {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	return len(s.tenants)
}

// JournalErr returns the first write-ahead journal failure among the
// tenants, naming its tenant, or nil while every journal is healthy. A
// failed journal fail-stops its tenant's ingest.
func (s *Server) JournalErr() error {
	for _, t := range s.Tenants() {
		if err := t.collector.journalFailure(); err != nil {
			return fmt.Errorf("tenant %q: %w", t.name, err)
		}
	}
	return nil
}

// close publishes everything the tenant's collector dispatched, closes the
// collector (buffered events stranded in it are an error) and, for a
// factory-created tenant, releases its resources.
func (t *Tenant) close() []error {
	var errs []error
	t.monitor.IngestBarrier()
	if err := t.collector.Close(); err != nil {
		if t.name != DefaultTenant {
			err = fmt.Errorf("tenant %q: %w", t.name, err)
		}
		errs = append(errs, err)
	}
	if t.closeRes != nil {
		if err := t.closeRes(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: closing resources: %w", t.name, err))
		}
	}
	return errs
}

// checkQuota rejects a batch that would push the tenant past its event
// quota. Called from the single ingest path, so the read-then-accept is not
// racy; the atomic only serves concurrent metric scrapes.
func (t *Tenant) checkQuota(batch int) error {
	if t.maxEvents > 0 && t.accepted.Load()+int64(batch) > t.maxEvents {
		return fmt.Errorf("monitor: tenant %q: event quota %d exhausted: %w", t.name, t.maxEvents, ErrTenantQuota)
	}
	return nil
}
