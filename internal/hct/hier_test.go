package hct

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/commgraph"
	"repro/internal/model"
)

func TestBuildHierarchyErrors(t *testing.T) {
	g := commgraph.New(4)
	if _, err := BuildHierarchy(g, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("empty sizes accepted")
	}
	if _, err := BuildHierarchy(g, []int{5, 5}); !errors.Is(err, ErrBadConfig) {
		t.Error("non-increasing sizes accepted")
	}
	if _, err := BuildHierarchy(g, []int{8, 4}); !errors.Is(err, ErrBadConfig) {
		t.Error("decreasing sizes accepted")
	}
}

func TestBuildHierarchyNesting(t *testing.T) {
	// A ring of 24 clusters naturally into contiguous runs; level-1
	// groups must be unions of level-0 groups and sizes must respect the
	// bounds.
	b := model.NewBuilder("ring", 24)
	for round := 0; round < 20; round++ {
		for p := 0; p < 24; p++ {
			b.Message(model.ProcessID(p), model.ProcessID((p+1)%24))
		}
	}
	tr := b.Trace()
	g := commgraph.FromTrace(tr)
	h, err := BuildHierarchy(g, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	for p := int32(0); p < 24; p++ {
		d0 := h.Domain(0, p)
		d1 := h.Domain(1, p)
		if len(d0) > 4 || len(d1) > 12 {
			t.Fatalf("domain sizes: %d, %d", len(d0), len(d1))
		}
		// Nesting: every level-0 member is in the level-1 domain.
		set := map[int32]bool{}
		for _, q := range d1 {
			set[q] = true
		}
		for _, q := range d0 {
			if !set[q] {
				t.Fatalf("level-0 domain of %d not nested in level-1", p)
			}
		}
		if !h.SameCluster(0, p, p) || !h.SameCluster(1, p, p) {
			t.Fatal("SameCluster reflexivity broken")
		}
	}
	// On a connected heavy ring, level-1 groups should actually merge
	// several level-0 groups.
	if len(h.Domain(1, 0)) <= len(h.Domain(0, 0)) {
		t.Fatalf("level 1 did not coarsen: %d vs %d", len(h.Domain(1, 0)), len(h.Domain(0, 0)))
	}
}

func TestHierTimestamperLevelsAndStorage(t *testing.T) {
	// 3 groups of 4 on a ring of 12: intra-group traffic stays level 0,
	// neighbour-group crossings level 1, and none need full vectors
	// (level 1 spans everything reachable)... with sizes {4,12} level 1
	// covers the whole ring, so full vectors appear only if crossing
	// level 1 — impossible here.
	b := model.NewBuilder("ring", 12)
	for round := 0; round < 10; round++ {
		for p := 0; p < 12; p++ {
			b.Message(model.ProcessID(p), model.ProcessID((p+1)%12))
		}
	}
	tr := b.Trace()
	g := commgraph.FromTrace(tr)
	h, err := BuildHierarchy(g, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	ht, err := NewHierTimestamper(h, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := ht.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	perLevel, full := ht.LevelCounts()
	if ht.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d", ht.Events())
	}
	if perLevel[0] == 0 || perLevel[1] == 0 {
		t.Fatalf("level counts = %v", perLevel)
	}
	if full != 0 {
		t.Fatalf("full vectors = %d, want 0 (level 1 spans the ring)", full)
	}
	// Storage: strictly better than charging everything at the top level.
	if got := ht.StorageInts(300); got >= int64(tr.NumEvents()*12) {
		t.Fatalf("multi-level storage %d not better than flat level-1", got)
	}
	// Component lookups behave.
	ts, ok := ht.Timestamp(model.EventID{Process: 0, Index: 1})
	if !ok {
		t.Fatal("missing timestamp")
	}
	if _, ok := ts.Component(0); !ok {
		t.Fatal("own component missing")
	}
}

func TestNewHierTimestamperErrors(t *testing.T) {
	g := commgraph.New(4)
	h, err := BuildHierarchy(g, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierTimestamper(nil, []int{2}); !errors.Is(err, ErrBadConfig) {
		t.Error("nil hierarchy accepted")
	}
	if _, err := NewHierTimestamper(h, []int{2, 4}); !errors.Is(err, ErrBadConfig) {
		t.Error("size/level mismatch accepted")
	}
}

// TestHierPrecedenceMatchesOracle verifies exactness of multi-level
// timestamps (2 and 3 explicit levels) on random traces.
func TestHierPrecedenceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 6 + r.Intn(8)
		tr := randomLocalTrace(r, n, 120)
		oracle, err := model.NewReachability(tr)
		if err != nil {
			t.Fatal(err)
		}
		g := commgraph.FromTrace(tr)
		for _, sizes := range [][]int{{3}, {3, 7}, {2, 5, 11}} {
			h, err := BuildHierarchy(g, sizes)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := NewHierTimestamper(h, sizes)
			if err != nil {
				t.Fatal(err)
			}
			if err := ht.ObserveAll(tr); err != nil {
				t.Fatal(err)
			}
			checkStampsAgainstFM(t, fmt.Sprint("levels ", sizes), tr, ht)
			for i := range tr.Events {
				for j := range tr.Events {
					e, f := tr.Events[i].ID, tr.Events[j].ID
					want := oracle.HappenedBefore(e, f)
					got, err := ht.Precedes(e, f)
					if err != nil {
						t.Fatalf("levels %v: Precedes(%v,%v): %v", sizes, e, f, err)
					}
					if got != want {
						t.Fatalf("trial %d levels %v: Precedes(%v,%v) = %v, want %v", trial, sizes, e, f, got, want)
					}
				}
			}
		}
	}
}

func TestHierObserveAllPropagatesErrors(t *testing.T) {
	g := commgraph.New(2)
	h, err := BuildHierarchy(g, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	ht, err := NewHierTimestamper(h, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	bad := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	if err := ht.ObserveAll(bad); err == nil {
		t.Error("invalid stream accepted")
	}
	if _, err := ht.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("err = %v", err)
	}
}
