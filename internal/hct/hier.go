package hct

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// Hierarchy is a static multi-level clustering: level 0 is the finest
// partition of processes, each higher level groups the clusters of the level
// below, and an implicit top level encompasses the whole computation —
// Section 2.3's "clusters of clusters, and so on recursively". The paper's
// evaluation explores two levels (one explicit level plus the implicit
// whole-computation cluster); Hierarchy generalizes to any depth.
//
// Domains[l][p] names the set of processes sharing process p's level-l
// cluster, as a sorted member slice. Level l+1 domains are supersets of
// level l domains.
type Hierarchy struct {
	numProcs int
	// domains[l][cluster] = sorted process members; clusterOf[l][p] = the
	// index into domains[l] of p's cluster.
	domains   [][][]int32
	clusterOf [][]int32
}

// Levels returns the number of explicit levels.
func (h *Hierarchy) Levels() int { return len(h.domains) }

// Domain returns the level-l cluster members containing process p.
func (h *Hierarchy) Domain(level int, p int32) []int32 {
	return h.domains[level][h.clusterOf[level][p]]
}

// SameCluster reports whether p and q share a cluster at the given level.
func (h *Hierarchy) SameCluster(level int, p, q int32) bool {
	return h.clusterOf[level][p] == h.clusterOf[level][q]
}

// BuildHierarchy constructs a static hierarchy over the trace's
// communication graph: level 0 applies the Figure 3 greedy clustering with
// sizes[0] as the maximum cluster size; each subsequent level clusters the
// previous level's clusters on the quotient graph, bounding the *process*
// count of a level-l cluster by sizes[l]. sizes must be strictly
// increasing.
func BuildHierarchy(g *commgraph.Graph, sizes []int) (*Hierarchy, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("%w: no hierarchy sizes", ErrBadConfig)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return nil, fmt.Errorf("%w: hierarchy sizes not increasing: %v", ErrBadConfig, sizes)
		}
	}
	n := g.NumProcs()
	h := &Hierarchy{numProcs: n}

	level0 := strategy.StaticGreedy(g, sizes[0])
	h.addLevel(level0)
	prev := level0
	for _, size := range sizes[1:] {
		// Cluster the previous level's clusters on the quotient graph,
		// bounding each group by its total process count.
		groups := mergeQuotient(g.Quotient(prev), prev, size)
		h.addLevel(groups)
		prev = groups
	}
	return h, nil
}

// mergeQuotient greedily merges level-(l-1) clusters (quotient nodes) into
// level-l groups, bounding each group's total process count by maxProcs.
// It mirrors the Figure 3 algorithm with sizes measured in processes.
func mergeQuotient(q *commgraph.Graph, prev [][]int32, maxProcs int) [][]int32 {
	type node struct {
		members []int32 // process members
		min     int32
		alive   bool
	}
	nodes := make([]node, 0, 2*len(prev))
	for _, g := range prev {
		nodes = append(nodes, node{members: g, min: g[0], alive: true})
	}
	type pair struct{ a, b int }
	mk := func(a, b int) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	edges := make(map[pair]int64)
	for _, e := range q.Edges() {
		edges[mk(int(e.P), int(e.Q))] += e.Count
	}
	for {
		best := pair{-1, -1}
		var bestNorm float64
		var bestMin, bestMax int32
		for pr, count := range edges {
			if count <= 0 {
				continue
			}
			na, nb := &nodes[pr.a], &nodes[pr.b]
			sz := len(na.members) + len(nb.members)
			if sz > maxProcs {
				continue
			}
			norm := float64(count) / float64(sz)
			lo, hi := na.min, nb.min
			if lo > hi {
				lo, hi = hi, lo
			}
			better := norm > bestNorm
			if !better && norm == bestNorm && best.a >= 0 {
				if lo < bestMin || (lo == bestMin && hi < bestMax) {
					better = true
				}
			}
			if better {
				best, bestNorm, bestMin, bestMax = pr, norm, lo, hi
			}
		}
		if best.a < 0 {
			break
		}
		na, nb := &nodes[best.a], &nodes[best.b]
		merged := node{
			members: append(append(make([]int32, 0, len(na.members)+len(nb.members)), na.members...), nb.members...),
			min:     na.min,
			alive:   true,
		}
		if nb.min < merged.min {
			merged.min = nb.min
		}
		id := len(nodes)
		nodes = append(nodes, merged)
		na.alive, nb.alive = false, false
		for pr, count := range edges {
			var other int
			switch {
			case pr.a == best.a || pr.a == best.b:
				other = pr.b
			case pr.b == best.a || pr.b == best.b:
				other = pr.a
			default:
				continue
			}
			delete(edges, pr)
			if other == best.a || other == best.b {
				continue
			}
			edges[mk(id, other)] += count
		}
	}
	var out [][]int32
	for _, nd := range nodes {
		if !nd.alive {
			continue
		}
		members := append([]int32(nil), nd.members...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// addLevel registers one level's groups.
func (h *Hierarchy) addLevel(groups [][]int32) {
	clusterOf := make([]int32, h.numProcs)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	for gi, g := range groups {
		for _, p := range g {
			clusterOf[p] = int32(gi)
		}
	}
	h.domains = append(h.domains, groups)
	h.clusterOf = append(h.clusterOf, clusterOf)
}

// HierTimestamp is one event's multi-level timestamp: a projection over its
// level's domain, or the full vector for top-level cluster receives.
type HierTimestamp struct {
	ID      model.EventID
	Kind    model.Kind
	Partner model.EventID
	// Level is the hierarchy level of the stored projection, or -1 when
	// the full vector is stored (a top-level cluster receive).
	Level int
	// Domain is the sorted process set the projection covers (nil for
	// full vectors).
	Domain []int32
	Proj   []int32
	Full   vclock.Clock

	cachedShim *Timestamp
}

// Component returns FM(e)[p] if derivable from this timestamp.
func (t *HierTimestamp) Component(p model.ProcessID) (int32, bool) {
	if t.Full != nil {
		if int(p) < 0 || int(p) >= len(t.Full) {
			return 0, false
		}
		return t.Full[p], true
	}
	i := sort.Search(len(t.Domain), func(k int) bool { return t.Domain[k] >= int32(p) })
	if i < len(t.Domain) && t.Domain[i] == int32(p) {
		return t.Proj[i], true
	}
	return 0, false
}

// StorageInts charges the projection at its level's configured size, or the
// fixed vector for full timestamps.
func (t *HierTimestamp) StorageInts(fixedVector int, levelSizes []int) int {
	if t.Full != nil {
		return fixedVector
	}
	return levelSizes[t.Level]
}

// HierTimestamper assigns multi-level hierarchical cluster timestamps under
// a static Hierarchy: each event stores the projection over the smallest
// level domain that contains the causal crossing (the level at which the
// event is not a cluster receive), or the full vector when even the top
// explicit level is crossed.
type HierTimestamper struct {
	h     *Hierarchy
	sizes []int
	fmts  *fm.Timestamper

	stamps map[model.EventID]*HierTimestamp
	events int
	// perLevel[l] counts events stamped at level l; full counts
	// top-level cluster receives.
	perLevel []int
	full     int
}

// NewHierTimestamper returns a timestamper over the given hierarchy. sizes
// must match the hierarchy's levels: the configured encoding size at each
// level.
func NewHierTimestamper(h *Hierarchy, sizes []int) (*HierTimestamper, error) {
	if h == nil || h.Levels() == 0 {
		return nil, fmt.Errorf("%w: empty hierarchy", ErrBadConfig)
	}
	if len(sizes) != h.Levels() {
		return nil, fmt.Errorf("%w: %d sizes for %d levels", ErrBadConfig, len(sizes), h.Levels())
	}
	return &HierTimestamper{
		h:        h,
		sizes:    sizes,
		fmts:     fm.NewTimestamper(h.numProcs),
		stamps:   make(map[model.EventID]*HierTimestamp),
		perLevel: make([]int, h.Levels()),
	}, nil
}

// Observe ingests the next event in delivery order.
func (ht *HierTimestamper) Observe(e model.Event) ([]*HierTimestamp, error) {
	stamped, err := ht.fmts.Observe(e)
	if err != nil {
		return nil, err
	}
	out := make([]*HierTimestamp, 0, len(stamped))
	for _, st := range stamped {
		ht.events++
		ev := st.Event
		t := &HierTimestamp{ID: ev.ID, Kind: ev.Kind, Partner: ev.Partner, Level: -1}
		p := int32(ev.ID.Process)
		level := 0
		if ev.Kind.IsReceive() && ev.HasPartner() {
			q := int32(ev.Partner.Process)
			for level < ht.h.Levels() && !ht.h.SameCluster(level, p, q) {
				level++
			}
		}
		if level < ht.h.Levels() {
			t.Level = level
			t.Domain = ht.h.Domain(level, p)
			t.Proj = st.Clock.Project(t.Domain)
			ht.perLevel[level]++
		} else {
			t.Full = st.Clock
			ht.full++
		}
		ht.stamps[t.ID] = t
		out = append(out, t)
	}
	return out, nil
}

// ObserveAll stamps a whole trace.
func (ht *HierTimestamper) ObserveAll(tr *model.Trace) error {
	for _, e := range tr.Events {
		if _, err := ht.Observe(e); err != nil {
			return fmt.Errorf("hct: at event %v: %w", e.ID, err)
		}
	}
	return ht.fmts.Flush()
}

// Events returns the number of stamped events.
func (ht *HierTimestamper) Events() int { return ht.events }

// LevelCounts returns per-level stamp counts plus the full-vector count.
func (ht *HierTimestamper) LevelCounts() (perLevel []int, full int) {
	return append([]int(nil), ht.perLevel...), ht.full
}

// Timestamp returns the stored timestamp.
func (ht *HierTimestamper) Timestamp(id model.EventID) (*HierTimestamp, bool) {
	t, ok := ht.stamps[id]
	return t, ok
}

// StorageInts totals timestamp storage under the fixed-vector encoding with
// per-level vector sizes.
func (ht *HierTimestamper) StorageInts(fixedVector int) int64 {
	var total int64
	for _, t := range ht.stamps {
		total += int64(t.StorageInts(fixedVector, ht.sizes))
	}
	return total
}

// hierStampSource adapts HierTimestamper to the recursive precedence
// algorithm by presenting HierTimestamps through the Timestamp surface.
type hierStampSource struct{ ht *HierTimestamper }

func (s hierStampSource) Timestamp(id model.EventID) (Timestamp, bool) {
	t, ok := s.ht.stamps[id]
	if !ok {
		return Timestamp{}, false
	}
	// Adapt lazily: recursivePrecedes only uses Component, Kind, Partner
	// and (via Component) the projection; build a shim Timestamp whose
	// Cluster carries the domain.
	return *t.shim(), true
}

// shim converts a HierTimestamp into the Timestamp shape the shared
// precedence code consumes. The conversion is cached.
func (t *HierTimestamp) shim() *Timestamp {
	if t.cachedShim == nil {
		st := &Timestamp{ID: t.ID, Kind: t.Kind, Partner: t.Partner, Full: t.Full}
		if t.Full == nil {
			st.Cluster = cluster.NewDomain(t.Domain)
			st.Proj = t.Proj
		}
		t.cachedShim = st
	}
	return t.cachedShim
}

// Precedes answers happened-before using the epoch-agnostic recursive test.
func (ht *HierTimestamper) Precedes(e, f model.EventID) (bool, error) {
	return recursivePrecedes(hierStampSource{ht}, e, f)
}
