// Package experiment is the evaluation harness: it re-runs the paper's
// Section 4 experiments — maximum-cluster-size sweeps of every clustering
// strategy over the computation corpus — and produces the figure series and
// summary tables.
//
// The harness is built as a layered sweep kernel. Every sweep point needs an
// hct.Result for one (trace, strategy, maxCS) configuration, and there are
// three ways to get one, from most to least general:
//
//   - event replay (hct.Accountant.ObserveAll): the reference path, valid
//     for any configuration — replayPoint keeps it available;
//   - compact stream replay (hct.Accountant.ObserveStream): valid for any
//     configuration, since deciders observe only the ordered sequence of
//     receive pairs — used for the dynamic merge strategies;
//   - closed form (hct.StaticResult): O(edges) instead of O(events), valid
//     only when clusters never merge — used for the static clusterings.
//
// The three paths are property-tested to agree exactly on the whole corpus.
package experiment

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/strategy"
)

// Strategy names under comparison. Section 4 compares four algorithms
// (Fidge/Mattern, merge-on-1st, static, merge-on-Nth); the contiguous,
// k-medoid and k-means entries are the ablation baselines discussed in
// Sections 1.2 and 3.1.
const (
	StratFM         = "fidge-mattern"
	StratMerge1st   = "merge-1st"
	StratMergeNth5  = "merge-nth-5"
	StratMergeNth10 = "merge-nth-10"
	StratStatic     = "static"
	StratContiguous = "contiguous"
	StratKMedoid    = "kmedoid"
	StratKMeans     = "kmeans"
)

// DefaultSizes returns the paper's sweep range: maxCS from 2 to 50.
func DefaultSizes() []int {
	sizes := make([]int, 0, 49)
	for s := 2; s <= 50; s++ {
		sizes = append(sizes, s)
	}
	return sizes
}

// TraceContext caches the per-trace artifacts shared across sweep points:
// the trace itself, its communication graph (used by the static strategies
// and the closed-form accounting), its compact receive stream (used by the
// dynamic strategies), and a prototype singleton partition cloned per
// replay. Build one per computation and reuse it for every strategy and
// maxCS; all cached artifacts are built lazily and safely under concurrent
// access.
type TraceContext struct {
	Trace *model.Trace

	graphOnce sync.Once
	graph     *commgraph.Graph

	streamOnce sync.Once
	stream     []model.ReceivePair

	protoOnce sync.Once
	proto     *cluster.Partition
}

// NewTraceContext wraps a generated trace.
func NewTraceContext(tr *model.Trace) *TraceContext {
	return &TraceContext{Trace: tr}
}

// Graph returns the (cached) communication graph.
func (tc *TraceContext) Graph() *commgraph.Graph {
	tc.graphOnce.Do(func() { tc.graph = commgraph.FromTrace(tc.Trace) })
	return tc.graph
}

// receives returns the (cached) compact receive stream of the trace: one
// 8-byte pair per receive-kind event, in delivery order. Callers must not
// mutate it.
func (tc *TraceContext) receives() []model.ReceivePair {
	tc.streamOnce.Do(func() { tc.stream = model.ReceiveStreamOf(tc.Trace) })
	return tc.stream
}

// singletons returns a clone of the cached prototype singleton partition —
// the dynamic strategies' starting state — without rebuilding the
// per-cluster member sets on every sweep point.
func (tc *TraceContext) singletons() *cluster.Partition {
	tc.protoOnce.Do(func() { tc.proto = cluster.NewSingletons(tc.Trace.NumProcs) })
	return tc.proto.Clone()
}

// Point is one sweep measurement.
type Point struct {
	MaxCS  int
	Ratio  float64
	Result hct.Result
	// ClusterVector is the vector size charged to projection timestamps
	// (maxCS, except for the unbounded ablation clusterings).
	ClusterVector int
}

// scratch holds per-worker reusable state for the sweep kernel: the
// merge-on-Nth deciders keep a pair-count matrix that is cleared and reused
// across sweep points rather than reallocated. A scratch must not be shared
// between goroutines; the zero value is ready to use.
type scratch struct {
	nth map[float64]*strategy.MergeOnNth
}

// mergeOnNth returns a reset pooled decider for the given threshold.
func (sc *scratch) mergeOnNth(threshold float64) *strategy.MergeOnNth {
	if sc.nth == nil {
		sc.nth = make(map[float64]*strategy.MergeOnNth)
	}
	d, ok := sc.nth[threshold]
	if !ok {
		d = strategy.NewMergeOnNth(threshold)
		sc.nth[threshold] = d
	} else {
		d.Reset()
	}
	return d
}

// mergeOnFirst is shared across all workers: the decider is stateless.
var mergeOnFirst = strategy.NewMergeOnFirst()

// staticConfig builds the partition of a never-merge strategy. The second
// result is the cluster-vector size to charge projections with.
func staticConfig(tc *TraceContext, strat string, maxCS int) (*cluster.Partition, int, error) {
	n := tc.Trace.NumProcs
	clusterVector := maxCS
	var groups [][]int32
	switch strat {
	case StratStatic:
		groups = strategy.StaticGreedy(tc.Graph(), maxCS)
	case StratContiguous:
		groups = cluster.Contiguous(n, maxCS)
	case StratKMedoid, StratKMeans:
		k := (n + maxCS - 1) / maxCS
		if strat == StratKMedoid {
			groups = strategy.KMedoid(tc.Graph(), k, 20)
		} else {
			groups = strategy.KMeansStyle(tc.Graph(), k, 20)
		}
		// These clusterings are not size-bounded: charge projection
		// timestamps at the size of the largest cluster actually built.
		for _, g := range groups {
			if len(g) > clusterVector {
				clusterVector = len(g)
			}
		}
	default:
		return nil, 0, fmt.Errorf("experiment: unknown strategy %q", strat)
	}
	part, err := cluster.NewFromGroups(n, groups)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment: %s clustering: %w", strat, err)
	}
	return part, clusterVector, nil
}

// isStatic reports whether the strategy fixes its clusters up front and
// never merges during the replay — the precondition for the closed-form
// accounting path.
func isStatic(strat string) bool {
	switch strat {
	case StratStatic, StratContiguous, StratKMedoid, StratKMeans:
		return true
	}
	return false
}

// fmPoint is the Fidge/Mattern pseudo-sweep point: every event stores the
// fixed vector; ratio 1 by definition.
func fmPoint(tc *TraceContext, maxCS, fixedVector int) Point {
	return Point{
		MaxCS:         maxCS,
		Ratio:         1.0,
		Result:        hct.Result{Events: tc.Trace.NumEvents(), ClusterReceives: tc.Trace.NumEvents(), MaxClusterSize: maxCS},
		ClusterVector: fixedVector,
	}
}

// finishPoint converts an accounting result into a sweep point.
func finishPoint(res hct.Result, maxCS, fixedVector, clusterVector int) Point {
	ratio := res.AverageRatioWithVector(fixedVector, clusterVector)
	// The fixed-vector encoding caps a timestamp's cost at the full
	// vector; a ratio above 1 would mean the tool stores more than
	// Fidge/Mattern, which the encoding forbids.
	if ratio > 1 {
		ratio = 1
	}
	return Point{MaxCS: maxCS, Ratio: ratio, Result: res, ClusterVector: clusterVector}
}

// runPoint is the sweep kernel: it measures one (strategy, maxCS)
// configuration on a trace along the cheapest valid accounting path. sc may
// be nil (fresh deciders are then allocated).
func runPoint(tc *TraceContext, strat string, maxCS, fixedVector int, sc *scratch) (Point, error) {
	if strat == StratFM {
		return fmPoint(tc, maxCS, fixedVector), nil
	}

	if isStatic(strat) {
		part, clusterVector, err := staticConfig(tc, strat, maxCS)
		if err != nil {
			return Point{}, err
		}
		res, err := hct.StaticResult(tc.Graph(), tc.Trace.NumEvents(), hct.Config{MaxClusterSize: maxCS, Partition: part})
		if err != nil {
			return Point{}, err
		}
		return finishPoint(res, maxCS, fixedVector, clusterVector), nil
	}

	cfg := hct.Config{MaxClusterSize: maxCS, Partition: tc.singletons()}
	switch strat {
	case StratMerge1st:
		cfg.Decider = mergeOnFirst
	case StratMergeNth5:
		if sc != nil {
			cfg.Decider = sc.mergeOnNth(5)
		} else {
			cfg.Decider = strategy.NewMergeOnNth(5)
		}
	case StratMergeNth10:
		if sc != nil {
			cfg.Decider = sc.mergeOnNth(10)
		} else {
			cfg.Decider = strategy.NewMergeOnNth(10)
		}
	default:
		return Point{}, fmt.Errorf("experiment: unknown strategy %q", strat)
	}
	a, err := hct.NewAccountant(tc.Trace.NumProcs, cfg)
	if err != nil {
		return Point{}, err
	}
	a.ObserveStream(tc.receives(), tc.Trace.NumEvents())
	return finishPoint(a.Result(), maxCS, fixedVector, maxCS), nil
}

// replayPoint measures one (strategy, maxCS) configuration by replaying the
// full event trace through the hct.Accountant — the reference accounting
// path predating the sweep kernel. It is retained for the equivalence
// property tests and the before/after benchmarks; runPoint must produce an
// identical Point for every configuration.
func replayPoint(tc *TraceContext, strat string, maxCS, fixedVector int) (Point, error) {
	if strat == StratFM {
		return fmPoint(tc, maxCS, fixedVector), nil
	}

	cfg := hct.Config{MaxClusterSize: maxCS}
	clusterVector := maxCS
	if isStatic(strat) {
		part, cv, err := staticConfig(tc, strat, maxCS)
		if err != nil {
			return Point{}, err
		}
		cfg.Partition, clusterVector = part, cv
	} else {
		switch strat {
		case StratMerge1st:
			cfg.Decider = strategy.NewMergeOnFirst()
		case StratMergeNth5:
			cfg.Decider = strategy.NewMergeOnNth(5)
		case StratMergeNth10:
			cfg.Decider = strategy.NewMergeOnNth(10)
		default:
			return Point{}, fmt.Errorf("experiment: unknown strategy %q", strat)
		}
	}
	res, err := hct.ResultOf(tc.Trace, cfg)
	if err != nil {
		return Point{}, err
	}
	return finishPoint(res, maxCS, fixedVector, clusterVector), nil
}

// Sweep runs a strategy over the full range of maximum cluster sizes.
func Sweep(tc *TraceContext, strat string, sizes []int, fixedVector int) (*metrics.Curve, error) {
	var sc scratch
	c := &metrics.Curve{
		Computation: tc.Trace.Name,
		Strategy:    strat,
		MaxCS:       make([]int, 0, len(sizes)),
		Ratio:       make([]float64, 0, len(sizes)),
	}
	for _, s := range sizes {
		pt, err := runPoint(tc, strat, s, fixedVector, &sc)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s maxCS=%d on %s: %w", strat, s, tc.Trace.Name, err)
		}
		c.MaxCS = append(c.MaxCS, s)
		c.Ratio = append(c.Ratio, pt.Ratio)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
