package monitor

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hct"
	"repro/internal/model"
)

// This file implements the read-only precedence-query surface. It is shared
// between the live monitor (which evaluates queries against the ingest
// pipeline's published watermarks) and the replay plane (which evaluates the
// identical queries against a store frozen at a cutoff: one restamped from
// the write-ahead log, or the live pipeline's own). Section 1.1 of the paper uses "computing the
// greatest concurrent elements of an event" as its running example: under
// stored Fidge/Mattern vectors that one operation read ~12000 virtual-memory
// pages. Under cluster timestamps the per-pair precedence test is cheap, and
// the compound queries below reduce to a logarithmic number of such tests
// per process.
//
// The queries are shard-safe without locks: each call captures the published
// per-process watermarks once and evaluates every probe against that cut, so
// the answer reflects a single consistent store state even while the ingest
// shards keep publishing. A frozen replay engine returns the same watermark
// on every capture, which degenerates to exactly the live semantics.

// QueryEngine is the store-side contract the query surface evaluates
// against. *hct.Pipeline implements it for the live monitor; the replay
// plane implements it with a frozen watermark over a pipeline's store.
type QueryEngine interface {
	NumProcs() int
	// CaptureWatermark snapshots the published per-process event counts,
	// reusing buf when it has capacity. Every query in a batch is answered
	// against one captured watermark.
	CaptureWatermark(buf hct.Watermark) hct.Watermark
	// Timestamp returns a by-value view of the event's stored timestamp.
	Timestamp(id model.EventID) (hct.Timestamp, bool)
	// Event and EventAt reconstruct a delivered event (kind and partner)
	// from its published cell without building a timestamp view; they double
	// as the existence check.
	Event(id model.EventID) (model.Event, bool)
	EventAt(id model.EventID, w hct.Watermark) (model.Event, bool)
	Precedes(e, f model.EventID) (bool, error)
	PrecedesAt(e, f model.EventID, w hct.Watermark) (bool, error)
	Concurrent(e, f model.EventID) (bool, error)
	ConcurrentAt(e, f model.EventID, w hct.Watermark) (bool, error)
}

// Queries answers precedence queries against a QueryEngine. Monitor embeds
// one over the live pipeline; replay views embed one over sealed history.
// All methods are safe for concurrent use.
type Queries struct {
	eng QueryEngine

	// wmPool recycles watermark buffers across query calls so the steady
	// state allocates nothing per query.
	wmPool sync.Pool
}

// NewQueries returns a query surface over eng.
func NewQueries(eng QueryEngine) *Queries {
	return &Queries{eng: eng}
}

// NumProcs returns the number of monitored processes.
func (q *Queries) NumProcs() int { return q.eng.NumProcs() }

// captureWatermark grabs a pooled watermark buffer and snapshots the
// published per-process event counts into it. releaseWatermark returns it.
func (q *Queries) captureWatermark() *hct.Watermark {
	wp, _ := q.wmPool.Get().(*hct.Watermark)
	if wp == nil {
		wp = new(hct.Watermark)
	}
	*wp = q.eng.CaptureWatermark(*wp)
	return wp
}

func (q *Queries) releaseWatermark(wp *hct.Watermark) { q.wmPool.Put(wp) }

// Precedes answers a happened-before query from the stored cluster
// timestamps. It takes no lock and never blocks (or is blocked by)
// ingestion.
func (q *Queries) Precedes(e, f model.EventID) (bool, error) {
	return q.eng.Precedes(e, f)
}

// Concurrent reports whether two events are concurrent. Lock-free, like
// Precedes.
func (q *Queries) Concurrent(e, f model.EventID) (bool, error) {
	return q.eng.Concurrent(e, f)
}

// Timestamp returns the timestamp of an event, by value: a view of the
// stored cell, at most one allocation (a vector the store holds as offsets
// over a keyframe is decoded). Lock-free; the vectors it carries may alias the
// store and are immutable.
func (q *Queries) Timestamp(id model.EventID) (hct.Timestamp, bool) {
	return q.eng.Timestamp(id)
}

// Lookup fetches a delivered event by ID, reconstructed from its published
// cell. Lock-free: an event is visible once its stamp is published, so with
// more than one ingest shard an acknowledged event may briefly report absent
// (a barrier — the server takes one per query frame — closes the window).
func (q *Queries) Lookup(id model.EventID) (model.Event, bool) {
	return q.eng.Event(id)
}

// QueryBatch answers a batch of precedence queries. The whole batch is
// evaluated against a single watermark captured up front, so every answer
// reflects one store state even while ingestion runs — earlier revisions
// re-acquired the read lock per shard and could straddle a delivery
// mid-batch. No lock is taken at any point: large batches shard across
// goroutines that scale linearly with cores instead of serializing behind
// RLock acquisitions, and concurrent DeliverBatch calls proceed untouched.
func (q *Queries) QueryBatch(qs []Query) []QueryResult {
	out := make([]QueryResult, len(qs))
	wp := q.captureWatermark()
	w := *wp
	if len(qs) < queryBatchParallelMin {
		q.queryRange(qs, out, w)
		q.releaseWatermark(wp)
		return out
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > len(qs)/queryBatchParallelMin+1 {
		shards = len(qs)/queryBatchParallelMin + 1
	}
	per := (len(qs) + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := 0; lo < len(qs); lo += per {
		hi := lo + per
		if hi > len(qs) {
			hi = len(qs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			q.queryRange(qs[lo:hi], out[lo:hi], w)
		}(lo, hi)
	}
	wg.Wait()
	q.releaseWatermark(wp)
	return out
}

// queryRange answers qs into res (same length) against the captured
// watermark w.
func (q *Queries) queryRange(qs []Query, res []QueryResult, w hct.Watermark) {
	for i, qu := range qs {
		switch qu.Op {
		case OpPrecedes:
			res[i].True, res[i].Err = q.eng.PrecedesAt(qu.A, qu.B, w)
		case OpConcurrent:
			res[i].True, res[i].Err = q.eng.ConcurrentAt(qu.A, qu.B, w)
		default:
			res[i].Err = fmt.Errorf("monitor: unknown query op %d", qu.Op)
		}
	}
}

// CutEntry describes one process's position in a causal cut relative to a
// query event: the index of the relevant event, or 0 if no event of that
// process qualifies.
type CutEntry struct {
	Process model.ProcessID
	Index   model.EventIndex
}

// GreatestPredecessors returns, for each process, the latest event that
// happened before e (index 0 when none). Entry pe reports e's own
// in-process predecessor. This is the causal past's frontier — the cut a
// visualization tool draws when the user selects an event.
func (q *Queries) GreatestPredecessors(e model.EventID) ([]CutEntry, error) {
	wp := q.captureWatermark()
	defer q.releaseWatermark(wp)
	w := *wp
	if _, ok := q.eng.EventAt(e, w); !ok {
		return nil, fmt.Errorf("monitor: GreatestPredecessors: unknown event %v", e)
	}
	out := make([]CutEntry, q.eng.NumProcs())
	for p := range out {
		qp := model.ProcessID(p)
		out[p].Process = qp
		if qp == e.Process {
			out[p].Index = e.Index - 1
			continue
		}
		idx, err := q.latestSatisfying(qp, w, func(g model.EventID) (bool, error) {
			return q.eng.PrecedesAt(g, e, w)
		})
		if err != nil {
			return nil, err
		}
		out[p].Index = idx
	}
	return out, nil
}

// GreatestConcurrent returns, for each process, the latest event concurrent
// with e (index 0 when none) — the paper's motivating query.
func (q *Queries) GreatestConcurrent(e model.EventID) ([]CutEntry, error) {
	wp := q.captureWatermark()
	defer q.releaseWatermark(wp)
	w := *wp
	if _, ok := q.eng.EventAt(e, w); !ok {
		return nil, fmt.Errorf("monitor: GreatestConcurrent: unknown event %v", e)
	}
	out := make([]CutEntry, q.eng.NumProcs())
	for p := range out {
		qp := model.ProcessID(p)
		out[p].Process = qp
		if qp == e.Process {
			// Events of e's own process are totally ordered with e.
			continue
		}
		// Last event of q that e does NOT precede. Events beyond it are
		// all causal successors of e.
		lastNotAfter, err := q.latestSatisfying(qp, w, func(g model.EventID) (bool, error) {
			after, err := q.eng.PrecedesAt(e, g, w)
			return !after, err
		})
		if err != nil {
			return nil, err
		}
		if lastNotAfter == 0 {
			continue // every event of q is after e (or q is empty)
		}
		// That event is concurrent iff it is not a predecessor of e.
		g := model.EventID{Process: qp, Index: lastNotAfter}
		before, err := q.eng.PrecedesAt(g, e, w)
		if err != nil {
			return nil, err
		}
		if !before {
			out[p].Index = lastNotAfter
		}
	}
	return out, nil
}

// latestSatisfying binary-searches process p's published events for the
// largest index whose event satisfies pred, assuming pred is downward-closed
// on the process order (if event k satisfies it, so do all earlier events).
// The search range is bounded by the captured watermark, so every probe hits
// a published timestamp. It returns 0 when no event qualifies.
func (q *Queries) latestSatisfying(p model.ProcessID, w hct.Watermark, pred func(model.EventID) (bool, error)) (model.EventIndex, error) {
	lo, hi := model.EventIndex(0), model.EventIndex(w[p]) // invariant: lo satisfies (or 0), hi+1 does not
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := pred(model.EventID{Process: p, Index: mid})
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}
