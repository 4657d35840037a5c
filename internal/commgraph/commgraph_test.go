package commgraph

import (
	"testing"

	"repro/internal/model"
)

func TestAddAndCount(t *testing.T) {
	g := New(4)
	g.Add(0, 1, 3)
	g.Add(1, 0, 2) // order-insensitive accumulation
	g.Add(2, 3, 5)
	if got := g.Count(0, 1); got != 5 {
		t.Fatalf("Count(0,1) = %d, want 5", got)
	}
	if got := g.Count(1, 0); got != 5 {
		t.Fatalf("Count(1,0) = %d, want 5", got)
	}
	if got := g.Count(0, 2); got != 0 {
		t.Fatalf("Count(0,2) = %d, want 0", got)
	}
	if got := g.Count(1, 1); got != 0 {
		t.Fatalf("self Count = %d", got)
	}
	if g.Total() != 10 {
		t.Fatalf("Total = %d", g.Total())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("zero procs", func() { New(0) })
	expectPanic("self edge", func() { New(2).Add(1, 1, 1) })
	expectPanic("out of range", func() { New(2).Add(0, 5, 1) })
}

func TestFromTraceCountsReceivesAndSyncs(t *testing.T) {
	b := model.NewBuilder("g", 3)
	b.Message(0, 1)
	b.Message(0, 1)
	b.Message(1, 0) // direction must not matter
	b.Sync(1, 2)    // counts twice
	b.Unary(0)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	g := FromTrace(tr)
	if got := g.Count(0, 1); got != 3 {
		t.Fatalf("Count(0,1) = %d, want 3", got)
	}
	if got := g.Count(1, 2); got != 2 {
		t.Fatalf("sync Count(1,2) = %d, want 2 (a sync pair is two occurrences)", got)
	}
	if g.Total() != 5 {
		t.Fatalf("Total = %d, want 5", g.Total())
	}
}

func TestEdgesSortedDeterministic(t *testing.T) {
	g := New(5)
	g.Add(3, 1, 1)
	g.Add(0, 4, 2)
	g.Add(0, 2, 3)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	want := []Edge{{0, 2, 3}, {0, 4, 2}, {1, 3, 1}}
	for i, e := range edges {
		if e != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, e, want[i])
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := New(5)
	g.Add(2, 0, 1)
	g.Add(2, 4, 1)
	g.Add(1, 2, 1)
	nb := g.neighbors(2)
	want := []int32{0, 1, 4}
	if len(nb) != 3 {
		t.Fatalf("neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nb, want)
		}
	}
	if len(g.neighbors(3)) != 0 {
		t.Fatalf("isolated process has neighbors")
	}
}

func TestLocalityFraction(t *testing.T) {
	// Ring of 4: every process talks to exactly 2 partners equally, so the
	// top-1 partner carries at least half of each process's traffic.
	g := New(4)
	g.Add(0, 1, 10)
	g.Add(1, 2, 10)
	g.Add(2, 3, 10)
	g.Add(3, 0, 10)
	f1 := g.LocalityFraction(1)
	if f1 < 0.49 || f1 > 0.51 {
		t.Fatalf("LocalityFraction(1) = %f, want ~0.5", f1)
	}
	if f2 := g.LocalityFraction(2); f2 < 0.99 {
		t.Fatalf("LocalityFraction(2) = %f, want 1.0", f2)
	}
	if New(2).LocalityFraction(1) != 0 {
		t.Fatalf("empty graph locality nonzero")
	}
}

func TestQuotient(t *testing.T) {
	g := New(6)
	g.Add(0, 1, 5) // intra group 0
	g.Add(2, 3, 7) // intra group 1
	g.Add(1, 2, 3) // group 0 <-> 1
	g.Add(4, 5, 2) // intra group 2
	g.Add(0, 4, 1) // group 0 <-> 2
	q := g.Quotient([][]int32{{0, 1}, {2, 3}, {4, 5}})
	if q.NumProcs() != 3 {
		t.Fatalf("quotient procs = %d", q.NumProcs())
	}
	if got := q.Count(0, 1); got != 3 {
		t.Fatalf("quotient count(0,1) = %d", got)
	}
	if got := q.Count(0, 2); got != 1 {
		t.Fatalf("quotient count(0,2) = %d", got)
	}
	if got := q.Count(1, 2); got != 0 {
		t.Fatalf("quotient count(1,2) = %d", got)
	}
	// Intra-group edges vanish.
	if q.Total() != 4 {
		t.Fatalf("quotient total = %d", q.Total())
	}
}

func TestQuotientPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := New(3)
	g.Add(0, 1, 1)
	expectPanic("uncovered", func() { g.Quotient([][]int32{{0, 1}}) })
	expectPanic("duplicate", func() { g.Quotient([][]int32{{0, 1}, {1, 2}}) })
	expectPanic("out of range", func() { g.Quotient([][]int32{{0, 1}, {2, 9}}) })
}
