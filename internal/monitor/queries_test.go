package monitor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// randomQueryTrace builds a mixed-kind random trace for query testing.
func randomQueryTrace(r *rand.Rand, n, events int) *model.Trace {
	b := model.NewBuilder("q", n)
	for b.NumEvents() < events {
		p := r.Intn(n)
		switch r.Intn(5) {
		case 0:
			b.Unary(model.ProcessID(p))
		case 1:
			q := r.Intn(n)
			if q == p {
				q = (q + 1) % n
			}
			b.Sync(model.ProcessID(p), model.ProcessID(q))
		default:
			q := r.Intn(n)
			if q == p {
				q = (q + 1) % n
			}
			b.Message(model.ProcessID(p), model.ProcessID(q))
		}
	}
	return b.Trace()
}

func TestGreatestPredecessorsMatchesFM(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tr := randomQueryTrace(r, 5, 120)
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clock := map[model.EventID]vclock.Clock{}
	for _, st := range stamped {
		clock[st.Event.ID] = st.Clock
	}

	for _, e := range tr.Events {
		cut, err := m.GreatestPredecessors(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		fmClk := clock[e.ID]
		for q, entry := range cut {
			if entry.Process != model.ProcessID(q) {
				t.Fatalf("entry order wrong: %v at %d", entry, q)
			}
			// Fidge/Mattern ground truth: component q counts exactly the
			// events of q in e's causal history — except e's own column,
			// which counts e itself, and a sync partner's column, which
			// counts the (concurrent) partner.
			want := model.EventIndex(fmClk[q])
			if model.ProcessID(q) == e.ID.Process {
				want = e.ID.Index - 1
			}
			if e.Kind == model.Sync && e.Partner.Process == model.ProcessID(q) {
				want = e.Partner.Index - 1
			}
			if entry.Index != want {
				t.Fatalf("GreatestPredecessors(%v)[%d] = %d, want %d", e.ID, q, entry.Index, want)
			}
		}
	}
}

func TestGreatestConcurrentMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tr := randomQueryTrace(r, 5, 100)
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnNth(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	oracle, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.PerProcessCounts()

	for _, e := range tr.Events {
		cut, err := m.GreatestConcurrent(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < tr.NumProcs; q++ {
			// Brute-force ground truth.
			want := model.EventIndex(0)
			if model.ProcessID(q) != e.ID.Process {
				for k := counts[q]; k >= 1; k-- {
					g := model.EventID{Process: model.ProcessID(q), Index: model.EventIndex(k)}
					if oracle.Concurrent(e.ID, g) {
						want = model.EventIndex(k)
						break
					}
				}
			}
			if cut[q].Index != want {
				t.Fatalf("GreatestConcurrent(%v)[%d] = %d, want %d", e.ID, q, cut[q].Index, want)
			}
		}
	}
}

func TestQueriesUnknownEvent(t *testing.T) {
	m := newTestMonitor(t, 2)
	if _, err := m.GreatestPredecessors(model.EventID{Process: 0, Index: 1}); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := m.GreatestConcurrent(model.EventID{Process: 0, Index: 1}); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestQueriesOnEmptyProcesses(t *testing.T) {
	// Process 2 never produces events: cuts must report 0 for it.
	b := model.NewBuilder("sparse", 3)
	b.Message(0, 1)
	tr := b.Trace()
	m := newTestMonitor(t, 3)
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	e := model.EventID{Process: 0, Index: 1}
	cut, err := m.GreatestPredecessors(e)
	if err != nil {
		t.Fatal(err)
	}
	if cut[2].Index != 0 {
		t.Fatalf("empty process has predecessor %d", cut[2].Index)
	}
	conc, err := m.GreatestConcurrent(e)
	if err != nil {
		t.Fatal(err)
	}
	if conc[2].Index != 0 {
		t.Fatalf("empty process has concurrent %d", conc[2].Index)
	}
}

// TestQueriesAllocate pins what the one read path costs its callers. A batch
// over a view that already has a cut allocates its result slice and nothing
// else — capturing that view copies nothing, and the buffer the batch borrows
// from the pool is never the view's own cut — and answered into a buffer of
// the caller's with room for it, not even that, over a cut view or the live
// one. The one-shot Precedes asks the live view as it is: no allocation, and no
// buffer left in the pool.
func TestQueriesAllocate(t *testing.T) {
	tr := randomQueryTrace(rand.New(rand.NewSource(7)), 6, 400)
	m := newTestMonitor(t, tr.NumProcs)
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	w := m.Pipeline().CaptureWatermark(nil)
	cut := NewQueries(m.Pipeline().At(w))
	qs := make([]Query, 8) // below queryBatchParallelMin: no goroutines
	for i := range qs {
		qs[i] = Query{Op: OpPrecedes + QueryOp(i%2), A: tr.Events[i].ID, B: tr.Events[len(tr.Events)-1-i].ID}
	}
	if got := testing.AllocsPerRun(100, func() { cut.QueryBatch(qs) }); got != 1 {
		t.Errorf("QueryBatch over a view at a cut: %.0f allocations, want 1 (the results)", got)
	}
	if wp, _ := cut.wmPool.Get().(*hct.Watermark); wp != nil && &(*wp)[0] == &w[0] {
		t.Error("the pool holds the view's own cut")
	}
	e, f := tr.Events[0].ID, tr.Events[len(tr.Events)-1].ID
	if got := testing.AllocsPerRun(100, func() { m.Precedes(e, f) }); got != 0 {
		t.Errorf("one-shot Precedes: %.0f allocations, want 0", got)
	}
	if m.wmPool.Get() != nil {
		t.Error("one-shot Precedes left a capture buffer in the pool")
	}
	out := make([]QueryResult, 0, len(qs))
	for _, view := range []*Queries{cut, m.Queries} {
		if got := testing.AllocsPerRun(100, func() { out = view.QueryBatchInto(qs, out) }); got != 0 {
			t.Errorf("QueryBatchInto with room for the answers (cut %v): %.0f allocations, want 0", view.Watermark() != nil, got)
		}
		if want := view.QueryBatch(qs); !slices.Equal(out, want) {
			t.Errorf("QueryBatchInto answered %v, QueryBatch %v", out, want)
		}
	}
}
