// Package commgraph extracts the communication graph of a computation: the
// number of communication occurrences between each pair of processes.
//
// Following Section 3.1 of the paper, there is a communication occurrence
// between two processes when a send event in one has its matching receive in
// the other; each receive contributes one occurrence. A synchronous
// communication is effectively both a transmit and a receive on each side,
// so a synchronous pair contributes two occurrences — merging the clusters
// involved would eliminate two cluster-receive events, not one.
package commgraph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// Edge is one undirected communication relationship, with P < Q.
type Edge struct {
	P, Q  int32
	Count int64
}

// Graph holds symmetric pairwise communication-occurrence counts.
type Graph struct {
	n      int
	counts map[uint64]int64
	total  int64
	degree []int // number of distinct partners per process

	mu    sync.Mutex
	edges []Edge // sorted Edges cache; invalidated by Add
}

func pairKey(p, q int32) uint64 {
	if p > q {
		p, q = q, p
	}
	return uint64(uint32(p))<<32 | uint64(uint32(q))
}

// New returns an empty graph over n processes.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("commgraph: New with n=%d", n))
	}
	return &Graph{n: n, counts: make(map[uint64]int64), degree: make([]int, n)}
}

// FromTrace builds the communication graph of a trace.
func FromTrace(t *model.Trace) *Graph {
	g := New(t.NumProcs)
	for _, e := range t.Events {
		// Count at receive-kind events only: each async message once
		// (its receive), each sync pair twice (both halves).
		if e.Kind.IsReceive() && e.HasPartner() {
			g.Add(int32(e.ID.Process), int32(e.Partner.Process), 1)
		}
	}
	return g
}

// NumProcs returns the number of processes.
func (g *Graph) NumProcs() int { return g.n }

// Add records occurrences between p and q (order-insensitive).
func (g *Graph) Add(p, q int32, occurrences int64) {
	if p == q {
		panic(fmt.Sprintf("commgraph: self edge on process %d", p))
	}
	if p < 0 || int(p) >= g.n || q < 0 || int(q) >= g.n {
		panic(fmt.Sprintf("commgraph: edge (%d,%d) out of range [0,%d)", p, q, g.n))
	}
	if g.edges != nil {
		g.mu.Lock()
		g.edges = nil // invalidate the sorted cache
		g.mu.Unlock()
	}
	k := pairKey(p, q)
	if _, existed := g.counts[k]; !existed {
		g.degree[p]++
		g.degree[q]++
	}
	g.counts[k] += occurrences
	g.total += occurrences
}

// Count returns the occurrences between p and q.
func (g *Graph) Count(p, q int32) int64 {
	if p == q {
		return 0
	}
	return g.counts[pairKey(p, q)]
}

// Total returns the total number of occurrences recorded.
func (g *Graph) Total() int64 { return g.total }

// NumEdges returns the number of distinct communicating pairs.
func (g *Graph) NumEdges() int { return len(g.counts) }

// Degree returns the number of distinct communication partners of p.
func (g *Graph) Degree(p int32) int { return g.degree[p] }

// Edges returns all edges sorted by (P, Q) for deterministic iteration. The
// slice is cached — callers must not modify it — and invalidated by Add, so
// graphs that interleave mutation and iteration (the batch timestamper)
// still see fresh views while the sweep, which calls Edges once per cell on
// a long-completed graph, pays the sort exactly once. Concurrent Edges
// calls on a quiescent graph are safe; Add is not safe concurrently with
// either Add or Edges (and never was).
func (g *Graph) Edges() []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.edges == nil {
		out := make([]Edge, 0, len(g.counts))
		for k, c := range g.counts {
			out = append(out, Edge{P: int32(k >> 32), Q: int32(uint32(k)), Count: c})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].P != out[j].P {
				return out[i].P < out[j].P
			}
			return out[i].Q < out[j].Q
		})
		g.edges = out
	}
	return g.edges
}

// ForEachEdge calls f once per distinct communicating pair with its
// occurrence count, in unspecified order. It allocates nothing, unlike
// Edges; use it for order-insensitive aggregation (the O(edges) closed-form
// accounting sums cross-partition counts through it on every sweep point).
func (g *Graph) ForEachEdge(f func(p, q int32, count int64)) {
	for k, c := range g.counts {
		f(int32(k>>32), int32(uint32(k)), c)
	}
}

// neighbors returns the distinct partners of process p in ascending order.
func (g *Graph) neighbors(p int32) []int32 {
	var out []int32
	for k := range g.counts {
		a, b := int32(k>>32), int32(uint32(k))
		switch p {
		case a:
			out = append(out, b)
		case b:
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Quotient collapses the graph along a partition: node i of the result is
// groups[i], and edge weights are the summed inter-group occurrence counts.
// It is the graph the hierarchical clustering recurses on when building
// clusters of clusters.
func (g *Graph) Quotient(groups [][]int32) *Graph {
	groupOf := make([]int32, g.n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, members := range groups {
		for _, p := range members {
			if p < 0 || int(p) >= g.n {
				panic(fmt.Sprintf("commgraph: Quotient group member %d out of range", p))
			}
			if groupOf[p] != -1 {
				panic(fmt.Sprintf("commgraph: Quotient process %d in two groups", p))
			}
			groupOf[p] = int32(gi)
		}
	}
	for p, gi := range groupOf {
		if gi == -1 {
			panic(fmt.Sprintf("commgraph: Quotient process %d in no group", p))
		}
	}
	q := New(len(groups))
	for k, c := range g.counts {
		a, b := groupOf[int32(k>>32)], groupOf[int32(uint32(k))]
		if a != b {
			q.Add(a, b, c)
		}
	}
	return q
}

// LocalityFraction reports the fraction of all occurrences carried by each
// process's top-k partners, a summary of how strongly communication is
// localized (Section 2.3's "most communication of most processes is with a
// small number of other processes").
func (g *Graph) LocalityFraction(k int) float64 {
	if g.total == 0 {
		return 0
	}
	var top int64
	for p := int32(0); int(p) < g.n; p++ {
		var cs []int64
		for _, q := range g.neighbors(p) {
			cs = append(cs, g.Count(p, q))
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] > cs[j] })
		for i := 0; i < k && i < len(cs); i++ {
			top += cs[i]
		}
	}
	// Each occurrence is seen from both endpoints.
	return float64(top) / float64(2*g.total)
}
