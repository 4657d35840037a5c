package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/strategy"
)

// resolveConfig validates cfg against numProcs and fills in the defaults
// (singleton partition, never-merge decider). Every constructor in the
// package goes through it, so all entry points accept exactly the same
// configurations.
func resolveConfig(numProcs int, cfg Config) (Config, *cluster.Partition, error) {
	if numProcs <= 0 {
		return cfg, nil, fmt.Errorf("%w: numProcs=%d", ErrBadConfig, numProcs)
	}
	if cfg.MaxClusterSize < 1 {
		return cfg, nil, fmt.Errorf("%w: MaxClusterSize=%d", ErrBadConfig, cfg.MaxClusterSize)
	}
	part := cfg.Partition
	if part == nil {
		part = cluster.NewSingletons(numProcs)
	}
	if part.NumProcs() != numProcs {
		return cfg, nil, fmt.Errorf("%w: partition covers %d processes, want %d", ErrBadConfig, part.NumProcs(), numProcs)
	}
	if cfg.Decider == nil {
		cfg.Decider = strategy.NewNever()
	}
	return cfg, part, nil
}

// clusterer is the one implementation of the paper's cluster-receive rule
// (Fig. 3 / Section 2.3): an intra-cluster event is stamped with a projection
// over its cluster; a cluster receive asks the strategy, and either merges
// the two clusters (within maxCS) and is then intra-cluster, or is noted and
// keeps its full Fidge/Mattern vector. It owns the delivery-order-dependent
// state of the algorithm — the live partition and the stateful Decider — and
// the space accounting that follows from its decisions. The pipeline planner,
// the Accountant and the batch and migrating variants all decide through it;
// none is safe for concurrent use, so each caller serializes its own.
type clusterer struct {
	part    *cluster.Partition
	decider strategy.Decider
	maxCS   int

	events    int // finalized events decided
	crEvents  int // noted (non-merged) cluster receives
	mergedCRs int // cluster receives that triggered a merge
}

func newClusterer(numProcs int, cfg Config) (*clusterer, error) {
	cfg, part, err := resolveConfig(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	return &clusterer{part: part, decider: cfg.Decider, maxCS: cfg.MaxClusterSize}, nil
}

// decide applies the rule to one finalized event, in delivery order. It
// returns the immutable cluster epoch the event must be stamped against, or
// nil for a noted cluster receive.
func (c *clusterer) decide(e model.Event) *cluster.Info {
	if !e.Kind.IsReceive() {
		c.events++
		return c.part.ClusterOf(int32(e.ID.Process))
	}
	return c.receive(int32(e.ID.Process), int32(e.Partner.Process))
}

// receive is decide for a receive-kind event in compact form: receiver
// process p, sending partner process q. Live clusters are unique per
// Partition, so the intra-cluster test is a pointer comparison. The cluster it
// returns holds q [sync-partners-direct].
func (c *clusterer) receive(p, q int32) *cluster.Info {
	c.events++
	own, other := c.part.ClusterOf(p), c.part.ClusterOf(q)
	if own == other {
		return own
	}
	sizeOK := own.Size()+other.Size() <= c.maxCS
	if c.decider.OnClusterReceive(own.ID, other.ID, own.Size(), other.Size(), sizeOK) {
		if !sizeOK {
			panic(fmt.Sprintf("hct: decider %s merged past the size bound", c.decider.Name()))
		}
		merged := c.part.Merge(own.ID, other.ID)
		c.decider.OnMerge(own.ID, other.ID, merged.ID)
		c.mergedCRs++
		return merged
	}
	c.crEvents++
	return nil
}

// Result is the one accounting snapshot: the clusterer's counters and the
// partition's shape, read together by clusterer.result so that every field
// describes the same moment. The experiments, the pipeline (Pipeline.Result),
// the monitor's STATS, /metrics and /statusz and a replay view all report
// it; the paper's Section 4 numbers follow from it through StorageInts.
type Result struct {
	Events          int
	ClusterReceives int // noted (full-vector) cluster receives
	MergedReceives  int // cluster receives that triggered a merge
	Merges          int
	LiveClusters    int
	MaxLiveCluster  int
	MaxClusterSize  int // the configured bound
}

// result returns the counters as one snapshot. Its callers serialize it with
// decide: the pipeline under planMu (Pipeline.Result), the Accountant by not
// being shared [result-one-snapshot].
func (c *clusterer) result() Result {
	return Result{
		Events:          c.events,
		ClusterReceives: c.crEvents,
		MergedReceives:  c.mergedCRs,
		Merges:          c.part.Merges(),
		LiveClusters:    c.part.NumLive(),
		MaxLiveCluster:  c.part.MaxLiveSize(),
		MaxClusterSize:  c.maxCS,
	}
}

// AverageRatio returns the ratio of the average cluster-timestamp size to
// the Fidge/Mattern timestamp size under the fixed-size-vector encoding of
// Section 4: Fidge/Mattern timestamps (and noted cluster receives, which
// retain them) occupy fixedVector elements; all other events occupy a vector
// of MaxClusterSize elements. A Fidge/Mattern-only tool therefore scores
// exactly 1.0; below 1.0 the clustering is paying off. It is 0 when there is
// nothing to measure: no events, or fixedVector ≤ 0.
func (r Result) AverageRatio(fixedVector int) float64 {
	return r.AverageRatioWithVector(fixedVector, r.MaxClusterSize)
}

// AverageRatioWithVector is AverageRatio with an explicit cluster-vector
// size. It supports the k-means/k-medoid ablations, whose clusters are not
// size-bounded: an implementation would have to allocate cluster vectors of
// the *largest* cluster produced, so their accounting must use that size
// rather than the nominal maxCS.
func (r Result) AverageRatioWithVector(fixedVector, clusterVector int) float64 {
	if r.Events == 0 || fixedVector <= 0 {
		return 0
	}
	total := StorageInts(r.Events, r.ClusterReceives, fixedVector, clusterVector)
	return float64(total) / (float64(r.Events) * float64(fixedVector))
}

// StorageInts is the closed form of the fixed-size-vector encoding of
// Section 4 (see Timestamp.StorageInts): every stored timestamp is either a
// noted cluster receive (fixedVector elements) or a projection
// (clusterVector elements, the configured maxCS), so the total follows in
// O(1) from the event and noted-cluster-receive counts — no walk over the
// store.
func StorageInts(events, clusterReceives, fixedVector, clusterVector int) int64 {
	cr := int64(clusterReceives)
	return cr*int64(fixedVector) + (int64(events)-cr)*int64(clusterVector)
}
