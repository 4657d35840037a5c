package strategy

import (
	"fmt"
	"slices"

	"repro/internal/commgraph"
)

// StaticGreedy implements the static clustering algorithm of Figure 3 of the
// paper: a hierarchical agglomerative method producing a single level of
// clusters.
//
// Starting from singletons, it repeatedly merges the pair of clusters with
// the highest pairwise communication-occurrence count normalized by the
// combined size of the pair, subject to the merged size not exceeding
// maxCS. It terminates when no two mergeable clusters have a communication
// occurrence between them: no matter how poor a merge might seem, if it
// removes any cluster receives it is better than not performing it.
//
// Ties on the normalized count are broken toward the lexicographically
// smallest cluster pair (by current member sets' minima) so results are
// deterministic.
//
// Candidate pairs live in a flat array scanned once per round with in-place
// compaction. An entry's normalized count and sizes are immutable once
// recorded (cluster ids are never resized — merging retires both operands
// and allocates a new id), so an entry is stale exactly when either endpoint
// has been retired, and a pair exceeding the size bound can be discarded
// permanently because sizes only grow. The sweep harness runs this once per
// (computation, maxCS) cell, so construction dominates the static table;
// the flat scan replaces the original per-round map iteration (50-100ns per
// probed entry) with a cache-friendly linear pass, and is property-tested to
// reproduce the reference merge sequence exactly.
func StaticGreedy(g *commgraph.Graph, maxCS int) [][]int32 {
	singletons := make([][]int32, g.NumProcs())
	for p := range singletons {
		singletons[p] = []int32{int32(p)}
	}
	return StaticGreedyFrom(g, singletons, maxCS)
}

// StaticGreedyFrom is StaticGreedy started from the given clusters instead
// of singletons: the step that builds clusters of clusters (Section 2.3). g
// is the communication graph over them — node i is groups[i], as
// commgraph.Graph.Quotient builds it — while sizes, the maxCS bound and the
// tie-break minima still count and name processes.
func StaticGreedyFrom(g *commgraph.Graph, groups [][]int32, maxCS int) [][]int32 {
	if maxCS < 1 {
		panic(fmt.Sprintf("strategy: StaticGreedy with maxCS=%d", maxCS))
	}
	n := g.NumProcs()
	if len(groups) != n {
		panic(fmt.Sprintf("strategy: StaticGreedyFrom with %d groups over a %d-node graph", len(groups), n))
	}

	// Live clusters, indexed by a dense id. Merging retires two ids and
	// allocates a new one. A cluster's member set, minimum and size are
	// immutable for the lifetime of its id.
	type cl struct {
		members []int32
		min     int32 // smallest member, for deterministic tie-breaks
		alive   bool
	}
	clusters := make([]cl, 0, 2*n)
	for _, members := range groups {
		clusters = append(clusters, cl{members: members, min: slices.Min(members), alive: true})
	}

	// Sparse adjacency: per cluster id, the (neighbor id, occurrence count)
	// list. Entries referencing retired neighbors are skipped on read; the
	// counts they carried were folded into the neighbor's successor when it
	// merged. An alive neighbor appears at most once per list.
	type arc struct {
		other int
		count int64
	}
	adj := make([][]arc, n, 2*n)

	cands := make([]pairEntry, 0, g.NumEdges())
	push := func(a, b int, count int64) {
		sz := len(clusters[a].members) + len(clusters[b].members)
		if count <= 0 || sz > maxCS {
			return // line 7 of Figure 3; over-bound pairs never re-qualify
		}
		lo, hi := clusters[a].min, clusters[b].min
		if lo > hi {
			lo, hi = hi, lo
		}
		cands = append(cands, pairEntry{
			norm: float64(count) / float64(sz),
			lo:   lo, hi: hi,
			a: a, b: b, count: count,
		})
	}
	for _, e := range g.Edges() {
		a, b := int(e.P), int(e.Q)
		adj[a] = append(adj[a], arc{other: b, count: e.Count})
		adj[b] = append(adj[b], arc{other: a, count: e.Count})
		push(a, b, e.Count)
	}

	// acc accumulates the folded neighbor counts of a merge, indexed by
	// cluster id; touched tracks which entries are nonzero so they can be
	// drained and zeroed without scanning. Counts are strictly positive, so
	// acc[x] == 0 means "not yet touched". Both are reused across rounds.
	acc := make([]int64, 2*n)
	touched := make([]int, 0, 16)

	for {
		// Select the best live pair — highest normalized count, ties toward
		// the smallest (lo, hi) — compacting stale entries away in place.
		best, w := -1, 0
		for i := range cands {
			e := cands[i]
			if !clusters[e.a].alive || !clusters[e.b].alive {
				continue // stale: an endpoint merged since this entry was recorded
			}
			cands[w] = e
			if best < 0 || betterPair(e, cands[best]) {
				best = w
			}
			w++
		}
		cands = cands[:w]
		if best < 0 {
			break // CRMax == 0: terminate (line 19)
		}
		e := cands[best]
		cands[best] = cands[w-1]
		cands = cands[:w-1]

		// Merge the selected pair into a fresh cluster id.
		ca, cb := &clusters[e.a], &clusters[e.b]
		merged := cl{
			members: append(append(make([]int32, 0, len(ca.members)+len(cb.members)), ca.members...), cb.members...),
			min:     ca.min,
			alive:   true,
		}
		if cb.min < merged.min {
			merged.min = cb.min
		}
		id := len(clusters)
		clusters = append(clusters, merged)
		ca.alive, cb.alive = false, false

		// Fold arcs of the retired operands into the new id.
		for _, old := range [2]int{e.a, e.b} {
			for _, ar := range adj[old] {
				if ar.other == e.a || ar.other == e.b || !clusters[ar.other].alive {
					continue // the intra-merge edge disappears; stale arcs were folded already
				}
				if acc[ar.other] == 0 {
					touched = append(touched, ar.other)
				}
				acc[ar.other] += ar.count
			}
			adj[old] = nil // retired lists are never read again
		}
		slices.Sort(touched)
		folded := make([]arc, 0, len(touched))
		for _, other := range touched {
			folded = append(folded, arc{other: other, count: acc[other]})
			acc[other] = 0
		}
		touched = touched[:0]
		adj = append(adj, folded)
		for _, ar := range folded {
			adj[ar.other] = append(adj[ar.other], arc{other: id, count: ar.count})
			push(id, ar.other, ar.count)
		}
	}

	var out [][]int32
	for _, c := range clusters {
		if !c.alive {
			continue
		}
		members := append([]int32(nil), c.members...)
		slices.Sort(members)
		out = append(out, members)
	}
	// Deterministic group order by smallest member.
	slices.SortFunc(out, func(x, y []int32) int { return int(x[0] - y[0]) })
	return out
}

// pairEntry is one candidate merge. norm, lo and hi are immutable once
// recorded; (lo, hi) — the minima of the two member sets — uniquely
// identify a live cluster pair, so ordering by (norm desc, lo asc, hi asc)
// is a strict total order and selection matches the reference linear scan
// pair for pair. The float64 norm is compared exactly as the reference
// computed it; replacing it with exact rational comparison could order
// pairs the float tie-break considers equal.
type pairEntry struct {
	norm   float64
	lo, hi int32
	a, b   int
	count  int64
}

// betterPair reports whether e precedes f in the merge-selection order.
func betterPair(e, f pairEntry) bool {
	if e.norm != f.norm {
		return e.norm > f.norm
	}
	if e.lo != f.lo {
		return e.lo < f.lo
	}
	return e.hi < f.hi
}
