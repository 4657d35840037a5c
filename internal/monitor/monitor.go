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
// The monitor is a thin façade over hct.Pipeline: an admission gate holds
// each event to the delivery contract, a sequential planner makes every
// cluster decision in delivery order, and per-shard stamping lanes do the
// vector-clock math and column publication (see internal/hct/pipeline.go for
// the full protocol). New builds a single-shard monitor, which stamps inline
// on the delivering goroutine. NewWithOptions with Shards N > 1 spreads the
// stamping work across N lanes behind a planner goroutine; DeliverBatchAsync
// plus IngestBarrier are the form that does not wait per run (recovery feeds
// the log through it; the server's collector calls Pipeline.DispatchAdmitted
// directly). Stats and Pipeline().Result() read the planner's counters as
// one snapshot (hct.Result).
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
// goroutine (one ingest shard); use NewWithOptions to spread stamping across
// cores.
func New(numProcs int, cfg hct.Config) (*Monitor, error) {
	return NewWithOptions(numProcs, cfg, hct.PipelineOptions{Shards: 1})
}

// NewWithOptions returns a monitor with full control over the ingest
// pipeline — shard count and plan-queue depth (see hct.PipelineOptions). There
// are two shapes, chosen by Shards: one lane stamps on the delivering
// goroutine, more than one (≤0 selects GOMAXPROCS) runs lanes behind a
// planner goroutine. Each lane owns a contiguous — or, when the
// configuration carries a static partition, cluster-aligned — block of
// processes. Results, errors included, are identical in both shapes; only
// the throughput differs. A caller that chooses more than one lane owns the
// pipeline's goroutines and must Close the monitor when done.
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

// Stats is what STATS reports of a monitor: one accounting snapshot, its
// storage under the fixed-size encoding at one vector width, and the
// admitted sends awaiting their receive.
type Stats struct {
	hct.Result
	StorageInts  int64
	PendingSends int
}

// StatsOf builds Stats from one accounting snapshot; Monitor.Stats and a
// replay view's Stats both go through it, so the storage is hct.StorageInts
// of r's own fields.
func StatsOf(r hct.Result, pendingSends, fixedVector int) Stats {
	return Stats{
		Result:       r,
		StorageInts:  hct.StorageInts(r.Events, r.ClusterReceives, fixedVector, r.MaxClusterSize),
		PendingSends: pendingSends,
	}
}

// Stats returns the monitor's accounting at fixedVector. It is O(1): one
// planner-mutex hold for the snapshot, one admission-lock hold for the
// pending sends.
func (m *Monitor) Stats(fixedVector int) Stats {
	return StatsOf(m.pipe.Result(), m.pipe.PendingSends(), fixedVector)
}

// clusterSizes returns the live cluster-size distribution as size -> number
// of live clusters of that size.
func (m *Monitor) clusterSizes() map[int]int {
	out := make(map[int]int)
	m.clusterSizesInto(out)
	return out
}

// clusterSizesInto fills out (cleared first) with the live cluster-size
// distribution. Unlike clusterSizes it allocates nothing in the steady
// state: the partition snapshot lands in a buffer owned by the monitor, so
// scrape paths can reuse one map across /metrics scrapes. Safe for
// concurrent callers.
func (m *Monitor) clusterSizesInto(out map[int]int) {
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
