package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/model"
	"repro/internal/strategy"
)

// BatchTimestamper implements the first future-work variant of Section 5 of
// the paper: collect a significant number of events before performing a
// static clustering and subsequent timestamp operation.
//
// The first BatchSize events are stamped with full Fidge/Mattern vectors
// (the "mechanism for precedence determination for those events that have
// yet to receive a cluster timestamp" the paper calls for — their vectors
// are simply kept). Once the batch is full, the static greedy clustering of
// Figure 3 is run over the communication observed so far and installed as
// the partition; subsequent events receive ordinary cluster timestamps, with
// an optional dynamic Decider still allowed to merge clusters for
// communication the prefix did not predict.
//
// Precedence uses the epoch-agnostic recursive test, which remains exact
// across the batch boundary.
type BatchTimestamper struct {
	variant
	cfg    BatchConfig
	graph  *commgraph.Graph // the batch's communication; released when it closes
	prefix int              // events stamped with full vectors
}

// BatchConfig parameterizes a BatchTimestamper.
type BatchConfig struct {
	// MaxClusterSize is the cluster-size bound (maxCS).
	MaxClusterSize int
	// BatchSize is the number of events stamped with full vectors before
	// the static clustering runs.
	BatchSize int
	// Decider optionally merges clusters dynamically after the batch;
	// nil freezes the static clustering.
	Decider strategy.Decider
}

// NewBatchTimestamper returns a batch timestamper over numProcs processes.
func NewBatchTimestamper(numProcs int, cfg BatchConfig) (*BatchTimestamper, error) {
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("%w: BatchSize=%d", ErrBadConfig, cfg.BatchSize)
	}
	bt := &BatchTimestamper{cfg: cfg}
	if err := bt.init(numProcs, Config{MaxClusterSize: cfg.MaxClusterSize, Decider: cfg.Decider}, bt.decide); err != nil {
		return nil, err
	}
	bt.graph = commgraph.New(numProcs)
	return bt, nil
}

// decide is the batch policy on the engine's plan stage: the first BatchSize
// finalized events keep their full vector (a nil epoch) and feed the
// communication graph; the event that fills the batch installs the static
// clustering, and from then on the core's rule decides. The two halves of a
// synchronous pair are decided one after the other, so a batch boundary
// between them leaves the first half full and the second under the new
// partition.
func (bt *BatchTimestamper) decide(e model.Event) *cluster.Info {
	if bt.Clustered() {
		return bt.ts.core.decide(e)
	}
	if e.Kind.IsReceive() {
		bt.graph.Add(int32(e.ID.Process), int32(e.Partner.Process), 1)
	}
	if bt.prefix++; bt.Clustered() {
		bt.install()
	}
	return nil
}

// install closes the batch: the static greedy clustering over the observed
// communication becomes the core's partition.
func (bt *BatchTimestamper) install() {
	groups := strategy.StaticGreedy(bt.graph, bt.cfg.MaxClusterSize)
	part, err := cluster.NewFromGroups(bt.ts.NumProcs(), groups)
	if err != nil {
		// StaticGreedy returns a complete partition by construction.
		panic(fmt.Sprintf("hct: batch clustering produced invalid partition: %v", err))
	}
	bt.ts.core.part = part
	bt.graph = nil
}

// Clustered reports whether the batch has closed and the static clustering
// is installed.
func (bt *BatchTimestamper) Clustered() bool { return bt.prefix == bt.cfg.BatchSize }

// Partition returns the installed partition, or nil during the batch.
func (bt *BatchTimestamper) Partition() *cluster.Partition {
	if !bt.Clustered() {
		return nil
	}
	return bt.ts.Partition()
}

// Events returns the number of events stamped.
func (bt *BatchTimestamper) Events() int { return bt.prefix + bt.ts.Events() }

// PrefixEvents returns how many events were stamped with full vectors
// before the clustering ran.
func (bt *BatchTimestamper) PrefixEvents() int { return bt.prefix }

// ClusterReceives returns the number of noted cluster receives after the
// batch closed (prefix events are not counted: they keep full vectors by
// design, not because clustering failed).
func (bt *BatchTimestamper) ClusterReceives() int { return bt.ts.ClusterReceives() }

// StorageInts totals the stored timestamp sizes under the fixed-vector
// encoding: the prefix and the noted cluster receives at the fixed vector,
// everything else at maxCS.
func (bt *BatchTimestamper) StorageInts(fixedVector int) int64 {
	return StorageInts(bt.Events(), bt.prefix+bt.ClusterReceives(), fixedVector, bt.cfg.MaxClusterSize)
}
