// Package monitor implements the central monitoring entity of Figure 1 of
// the paper: it consumes the event records emitted by the instrumented
// processes of a parallel program, incrementally builds the partial-order
// data structure, assigns hierarchical cluster timestamps, and answers the
// precedence queries issued by visualization and control systems.
package monitor

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/obs"
)

// Monitor is the monitoring entity. DeliverBatch ingests events in a valid
// delivery order (a linear extension of the computation); Collector relaxes
// that requirement for concurrent producers.
//
// Since the sharded-ingest rework the monitor is a thin façade over
// hct.Pipeline: an admission gate holds each event to the delivery contract,
// a sequential planner makes every cluster decision in delivery order, and
// per-shard stamping lanes do the vector-clock math and column publication (see internal/hct/pipeline.go
// for the full protocol). New builds a single-shard monitor, which stamps
// inline on the delivering goroutine — the exact single-writer path earlier
// revisions implemented directly. NewSharded spreads the stamping work across
// N lanes behind a planner goroutine; DeliverBatchAsync plus IngestBarrier are
// the form that does not wait per run (recovery feeds the log through it; the
// server's collector calls Pipeline.DispatchAdmitted directly).
//
// Precedence queries (Precedes, Concurrent, Timestamp, QueryBatch, and the
// compound queries in queries.go) take no lock at all: each stamping lane
// publishes per-process watermarks as it finishes events, and queries read
// only the immutable store prefix below them (see internal/hct/store.go for
// the protocol). Queries therefore never stall ingestion and scale across
// cores.
type Monitor struct {
	// Queries is the read-only precedence-query surface, shared with the
	// replay plane: every query method of the monitor is a promotion from
	// here, evaluated against the live pipeline.
	*Queries

	pipe *hct.Pipeline

	// sizesMu guards sizesBuf, the reused snapshot buffer behind the
	// cluster-size distribution scrape.
	sizesMu  sync.Mutex
	sizesBuf []int
}

// New returns a monitor over numProcs processes with the given
// cluster-timestamp configuration. The monitor stamps on the delivering
// goroutine (one ingest shard); use NewSharded to spread stamping across
// cores.
func New(numProcs int, cfg hct.Config) (*Monitor, error) {
	return NewSharded(numProcs, cfg, 1)
}

// NewSharded returns a monitor whose delivery path is split across the given
// number of ingest shards (≤0 selects GOMAXPROCS). Each shard owns a
// contiguous — or, when the configuration carries a static partition,
// cluster-aligned — block of processes and stamps their events on its own
// goroutine. Results are identical to New for every shard count; only the
// throughput differs. Callers that choose shards > 1 own the pipeline's
// goroutines and must Close the monitor when done.
func NewSharded(numProcs int, cfg hct.Config, shards int) (*Monitor, error) {
	return NewWithOptions(numProcs, cfg, hct.PipelineOptions{Shards: shards})
}

// NewWithOptions returns a monitor with full control over the ingest
// pipeline — shard count and plan-queue depth (see hct.PipelineOptions). There
// are two shapes, chosen by Shards: one lane stamps on the delivering
// goroutine, more than one runs lanes behind a planner goroutine. Results,
// errors included, are identical in both.
func NewWithOptions(numProcs int, cfg hct.Config, opt hct.PipelineOptions) (*Monitor, error) {
	pipe, err := hct.NewPipeline(numProcs, cfg, opt)
	if err != nil {
		return nil, err
	}
	return &Monitor{Queries: NewQueries(pipe.Live()), pipe: pipe}, nil
}

// Close shuts down the ingest shards. Queries against already-delivered
// state remain valid; further deliveries fail.
func (m *Monitor) Close() { m.pipe.Close() }

// Pipeline exposes the underlying ingest pipeline for telemetry surfaces
// (shard counters, cross-shard-wait observation).
func (m *Monitor) Pipeline() *hct.Pipeline { return m.pipe }

// IngestShards returns the number of ingest shards.
func (m *Monitor) IngestShards() int { return m.pipe.IngestShards() }

// DeliverBatch ingests a run of events in delivery order and waits for the
// whole run to be stamped and published. This is the fast path behind
// batched network ingestion: the sequential cost collapses to admission and
// cluster bookkeeping, with the vector math spread across the ingest
// shards (inline on this goroutine for a single-shard monitor). On error
// the events before the failing one remain delivered.
func (m *Monitor) DeliverBatch(events []model.Event) error {
	err := m.DeliverBatchAsync(events)
	m.pipe.Barrier()
	return err
}

// batchTracer adapts a possibly-nil *obs.Trace to the pipeline's span sink.
// The explicit nil branch matters: a nil *Trace stored in a non-nil
// interface would defeat the pipeline's bt == nil fast path.
func batchTracer(tr *obs.Trace) hct.BatchTracer {
	if tr == nil {
		return nil
	}
	return tr
}

// DeliverBatchAsync ingests a run without waiting, on a monitor with more than
// one shard, for planning or stamping to complete: the admitted run is put on
// the plan queue and the call returns as soon as there is room. The caller may
// reuse events immediately and overlap decoding/journaling the next run with
// planning and stamping the current one. Queries observe results as the
// per-process watermarks advance; IngestBarrier waits for everything accepted
// so far. Errors are synchronous, as in DeliverBatch.
func (m *Monitor) DeliverBatchAsync(events []model.Event) error {
	if err := m.pipe.DispatchAsync(events, nil); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	return nil
}

// IngestBarrier blocks until every event dispatched before the call has
// been stamped and published. A no-op on a single-shard monitor.
func (m *Monitor) IngestBarrier() { m.pipe.Barrier() }

// DeliverAll ingests a whole trace.
func (m *Monitor) DeliverAll(t *model.Trace) error {
	return m.DeliverBatch(t.Events)
}

// GreatestConcurrent... and richer query surfaces live with the callers;
// Stats summarizes the monitor state for dashboards and tests.
type Stats struct {
	Events          int
	ClusterReceives int
	MergedReceives  int
	LiveClusters    int
	MaxLiveCluster  int
	StorageInts     int64
	PendingSends    int
}

// Stats returns a snapshot of the monitor's accounting. Every field is O(1)
// to read from the planner's bookkeeping, so the cost is constant
// regardless of store size.
func (m *Monitor) Stats(fixedVector int) Stats {
	return Stats{
		Events:          m.pipe.Events(),
		ClusterReceives: m.pipe.ClusterReceives(),
		MergedReceives:  m.pipe.MergedClusterReceives(),
		LiveClusters:    m.pipe.NumLive(),
		MaxLiveCluster:  m.pipe.MaxLiveSize(),
		StorageInts:     m.pipe.StorageInts(fixedVector),
		PendingSends:    m.pipe.PendingSends(),
	}
}

// Accounting is the cheap subset of Stats: every field is O(1) to read (no
// walk over the stored timestamps), so live gauges can sample it on every
// scrape without stalling ingestion for long.
type Accounting struct {
	Events          int
	ClusterReceives int
	MergedReceives  int
	LiveClusters    int
	MaxLiveCluster  int
	Merges          int
	MaxClusterSize  int
}

// Accounting returns the O(1) accounting snapshot.
func (m *Monitor) Accounting() Accounting {
	return Accounting{
		Events:          m.pipe.Events(),
		ClusterReceives: m.pipe.ClusterReceives(),
		MergedReceives:  m.pipe.MergedClusterReceives(),
		LiveClusters:    m.pipe.NumLive(),
		MaxLiveCluster:  m.pipe.MaxLiveSize(),
		Merges:          m.pipe.Merges(),
		MaxClusterSize:  m.pipe.MaxClusterSize(),
	}
}

// TimestampSizeRatio returns the live value of the paper's Section 4
// headline metric for this accounting state: the mean timestamp size
// relative to a fixed Fidge/Mattern vector of fixedVector elements. Noted
// cluster receives retain a full vector (fixedVector ints); every other
// event carries a projection of MaxClusterSize ints. A Fidge/Mattern-only
// tool scores exactly 1.0; below 1.0 the clustering is paying off.
func (a Accounting) TimestampSizeRatio(fixedVector int) float64 {
	if a.Events == 0 || fixedVector <= 0 {
		return 0
	}
	cr := int64(a.ClusterReceives)
	rest := int64(a.Events) - cr
	total := cr*int64(fixedVector) + rest*int64(a.MaxClusterSize)
	return float64(total) / (float64(a.Events) * float64(fixedVector))
}

// ClusterSizes returns the live cluster-size distribution as size -> number
// of live clusters of that size.
func (m *Monitor) ClusterSizes() map[int]int {
	out := make(map[int]int)
	m.ClusterSizesInto(out)
	return out
}

// ClusterSizesInto fills out (cleared first) with the live cluster-size
// distribution. Unlike ClusterSizes it allocates nothing in the steady
// state: the partition snapshot lands in a buffer owned by the monitor, so
// scrape paths can reuse one map across /metrics scrapes. Safe for
// concurrent callers.
func (m *Monitor) ClusterSizesInto(out map[int]int) {
	m.sizesMu.Lock()
	defer m.sizesMu.Unlock()
	m.sizesBuf = m.pipe.LiveSizesInto(m.sizesBuf[:0])
	clear(out)
	for _, s := range m.sizesBuf {
		out[s]++
	}
}

// QueryPathCounts exposes the precedence query-path tallies (see
// hct.Timestamper.QueryPathCounts). The counters are atomic, so no lock is
// taken.
func (m *Monitor) QueryPathCounts() (direct, routed int64) {
	return m.pipe.QueryPathCounts()
}

// ErrClosed is returned by Collector.Submit after Close.
var ErrClosed = errors.New("monitor: collector closed")

// QueryOp selects the precedence relation a Query asks about.
type QueryOp uint8

const (
	// OpPrecedes asks whether A happened before B.
	OpPrecedes QueryOp = iota
	// OpConcurrent asks whether A and B are concurrent.
	OpConcurrent
)

// Query is one precedence question, as carried by a batched QUERY frame.
type Query struct {
	Op   QueryOp
	A, B model.EventID
}

// QueryResult is the answer to one Query. Err is non-nil when the query
// could not be answered (e.g. an event not yet delivered).
type QueryResult struct {
	True bool
	Err  error
}

// queryBatchParallelMin is the batch size above which QueryBatch shards the
// work across goroutines. Below it the goroutine handoff costs more than the
// queries themselves.
const queryBatchParallelMin = 512
