package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/model"
	"repro/internal/strategy"
)

// Hierarchy is a static multi-level clustering: level 0 is the finest
// partition of processes, each higher level groups the clusters of the level
// below, and an implicit top level encompasses the whole computation —
// Section 2.3's "clusters of clusters, and so on recursively". The paper's
// evaluation explores two levels (one explicit level plus the implicit
// whole-computation cluster); Hierarchy generalizes to any depth.
//
// Each level is a static partition; the level l+1 cluster of a process is a
// superset of its level l cluster.
type Hierarchy struct {
	levels []*cluster.Partition
}

// Levels returns the number of explicit levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// BuildHierarchy constructs a static hierarchy over the trace's
// communication graph: level 0 applies the Figure 3 greedy clustering with
// sizes[0] as the maximum cluster size; each subsequent level applies it to
// the previous level's clusters on the quotient graph, bounding the *process*
// count of a level-l cluster by sizes[l]. sizes must be strictly increasing.
func BuildHierarchy(g *commgraph.Graph, sizes []int) (*Hierarchy, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("%w: no hierarchy sizes", ErrBadConfig)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return nil, fmt.Errorf("%w: hierarchy sizes not increasing: %v", ErrBadConfig, sizes)
		}
	}
	h := &Hierarchy{}
	groups := strategy.StaticGreedy(g, sizes[0])
	for l := 0; ; l++ {
		part, err := cluster.NewFromGroups(g.NumProcs(), groups)
		if err != nil {
			return nil, fmt.Errorf("hct: hierarchy level %d: %w", l, err)
		}
		h.levels = append(h.levels, part)
		if l+1 == len(sizes) {
			return h, nil
		}
		groups = strategy.StaticGreedyFrom(g.Quotient(groups), groups, sizes[l+1])
	}
}

// HierTimestamper assigns multi-level hierarchical cluster timestamps under
// a static Hierarchy: each event stores the projection over the smallest
// level domain that contains the causal crossing (the level at which the
// event is not a cluster receive), or the full vector when even the top
// explicit level is crossed. A stored Timestamp's Cluster is that domain, a
// cluster of the hierarchy level it was stamped at.
type HierTimestamper struct {
	variant
	h     *Hierarchy
	sizes []int

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
	ht := &HierTimestamper{h: h, sizes: sizes, perLevel: make([]int, h.Levels())}
	// The engine's own partition is never consulted: every epoch comes from
	// the hierarchy.
	if err := ht.init(h.levels[0].NumProcs(), Config{MaxClusterSize: sizes[0]}, ht.decide); err != nil {
		return nil, err
	}
	return ht, nil
}

// decide is the hierarchy policy on the engine's plan stage: the domain of
// the lowest level at which the event is not a cluster receive, or nil (the
// full vector) when it crosses even the top explicit level.
func (ht *HierTimestamper) decide(e model.Event) *cluster.Info {
	p := int32(e.ID.Process)
	for l, part := range ht.h.levels {
		own := part.ClusterOf(p)
		if !e.Kind.IsReceive() || own == part.ClusterOf(int32(e.Partner.Process)) {
			ht.perLevel[l]++
			return own
		}
	}
	ht.full++
	return nil
}

// Events returns the number of stamped events.
func (ht *HierTimestamper) Events() int {
	n := ht.full
	for _, c := range ht.perLevel {
		n += c
	}
	return n
}

// LevelCounts returns per-level stamp counts plus the full-vector count.
func (ht *HierTimestamper) LevelCounts() (perLevel []int, full int) {
	return append([]int(nil), ht.perLevel...), ht.full
}

// StorageInts totals timestamp storage under the fixed-vector encoding with
// per-level vector sizes: a projection is charged at its level's configured
// size, a full timestamp at the fixed vector.
func (ht *HierTimestamper) StorageInts(fixedVector int) int64 {
	total := int64(ht.full) * int64(fixedVector)
	for l, n := range ht.perLevel {
		total += int64(n) * int64(ht.sizes[l])
	}
	return total
}
