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
// The queries are shard-safe without locks. A one-shot read (Precedes,
// Concurrent, Timestamp) asks the surface's view as it is. A compound
// one (QueryBatch, GreatestPredecessors, GreatestConcurrent) captures the view
// once and evaluates every probe against that cut [batch-consistent].
// A replay view already has its cut, and capturing it is the identity.

// Queries answers precedence queries against one view of a store. Monitor
// embeds one over the live view of its pipeline; replay views embed one over
// the same kind of store cut at a cutoff. The one-shot reads — Precedes,
// Concurrent, Timestamp — are the embedded view's own, lock-free and never
// blocking (or blocked by) ingestion; Watermark is its cut, nil when live.
// All methods are safe for concurrent use.
type Queries struct {
	hct.View

	// wmPool recycles the buffers live captures are cut into, so a batch
	// answered into a buffer of its caller's — queryBatchInto, which the
	// server calls with its connection's for every QUERY and QUERY@ frame —
	// allocates nothing in the steady state (TestQueriesAllocate,
	// TestRequestPathAllocatesNothing). A buffer is made NumProcs long and a
	// capture never reallocates it; a view with a cut of its own leaves it
	// unwritten, so the pool never holds that cut.
	wmPool sync.Pool
}

// NewQueries returns a query surface over view.
func NewQueries(view hct.View) *Queries {
	return &Queries{View: view}
}

// cut returns the surface's view at one cut — the counts published now,
// written into a pooled buffer, or the view's own — and the buffer, which the
// caller puts back in wmPool once it has stopped asking.
func (q *Queries) cut() (hct.View, *hct.Watermark) {
	wp, _ := q.wmPool.Get().(*hct.Watermark)
	if wp == nil {
		w := make(hct.Watermark, q.NumProcs())
		wp = &w
	}
	return q.Capture(*wp), wp
}

// QueryBatch answers a batch of precedence queries into a slice of its own;
// see queryBatchInto.
func (q *Queries) QueryBatch(qs []Query) []QueryResult { return q.queryBatchInto(qs, nil) }

// queryBatchInto answers a batch of precedence queries into out's backing
// array when it has room for len(qs) answers (a fresh slice otherwise) and
// returns the answers. The whole batch is evaluated against a single view
// captured up front [batch-consistent]. No lock is taken at any point: large
// batches shard across goroutines that scale with cores, and concurrent
// deliveries proceed untouched.
func (q *Queries) queryBatchInto(qs []Query, out []QueryResult) []QueryResult {
	if cap(out) < len(qs) {
		out = make([]QueryResult, len(qs))
	}
	out = out[:len(qs)]
	v, wp := q.cut()
	defer q.wmPool.Put(wp)
	if len(qs) < queryBatchParallelMin {
		queryRange(v, qs, out)
	} else {
		queryShards(v, qs, out)
	}
	return out
}

// queryShards answers qs into res (same length) against the captured view v,
// in slices spread over goroutines. It is queryBatchInto's arm for large
// batches, kept apart because the goroutines capture res: in the caller, which
// reslices its buffer, that would put the slice header on the heap for every
// batch.
func queryShards(v hct.View, qs []Query, res []QueryResult) {
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
			queryRange(v, qs[lo:hi], res[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// queryRange answers qs into res (same length) against the captured view v,
// writing every result whole: res may hold an earlier batch's answers.
func queryRange(v hct.View, qs []Query, res []QueryResult) {
	for i, qu := range qs {
		switch qu.Op {
		case OpPrecedes:
			res[i].True, res[i].Err = v.Precedes(qu.A, qu.B)
		case OpConcurrent:
			res[i].True, res[i].Err = v.Concurrent(qu.A, qu.B)
		default:
			res[i] = QueryResult{Err: fmt.Errorf("monitor: unknown query op %d", qu.Op)}
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
	v, wp := q.cut()
	defer q.wmPool.Put(wp)
	if !v.Has(e) {
		return nil, fmt.Errorf("monitor: GreatestPredecessors: unknown event %v", e)
	}
	out := make([]CutEntry, v.NumProcs())
	for p := range out {
		qp := model.ProcessID(p)
		out[p].Process = qp
		if qp == e.Process {
			out[p].Index = e.Index - 1
			continue
		}
		idx, err := latestSatisfying(v, qp, func(g model.EventID) (bool, error) {
			return v.Precedes(g, e)
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
	v, wp := q.cut()
	defer q.wmPool.Put(wp)
	if !v.Has(e) {
		return nil, fmt.Errorf("monitor: GreatestConcurrent: unknown event %v", e)
	}
	out := make([]CutEntry, v.NumProcs())
	for p := range out {
		qp := model.ProcessID(p)
		out[p].Process = qp
		if qp == e.Process {
			// Events of e's own process are totally ordered with e.
			continue
		}
		// Last event of q that e does NOT precede. Events beyond it are
		// all causal successors of e.
		lastNotAfter, err := latestSatisfying(v, qp, func(g model.EventID) (bool, error) {
			after, err := v.Precedes(e, g)
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
		before, err := v.Precedes(g, e)
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
// The search range is bounded by the captured view v's cut, so every probe
// hits a published timestamp. It returns 0 when no event qualifies.
func latestSatisfying(v hct.View, p model.ProcessID, pred func(model.EventID) (bool, error)) (model.EventIndex, error) {
	lo, hi := model.EventIndex(0), model.EventIndex(v.Watermark()[p]) // invariant: lo satisfies (or 0), hi+1 does not
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
