package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
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
	numProcs int
	cfg      BatchConfig
	fmts     *fm.Timestamper
	graph    *commgraph.Graph

	core   clusterer // its partition is nil until the batch closes
	stamps map[model.EventID]*Timestamp
	prefix int
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
	rc, _, err := resolveConfig(numProcs, Config{MaxClusterSize: cfg.MaxClusterSize, Decider: cfg.Decider})
	if err != nil {
		return nil, err
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("%w: BatchSize=%d", ErrBadConfig, cfg.BatchSize)
	}
	return &BatchTimestamper{
		numProcs: numProcs,
		cfg:      cfg,
		core:     clusterer{decider: rc.Decider, maxCS: cfg.MaxClusterSize},
		fmts:     fm.NewTimestamper(numProcs),
		graph:    commgraph.New(numProcs),
		stamps:   make(map[model.EventID]*Timestamp),
	}, nil
}

// Clustered reports whether the batch has closed and the static clustering
// is installed.
func (bt *BatchTimestamper) Clustered() bool { return bt.core.part != nil }

// Partition returns the installed partition, or nil during the batch.
func (bt *BatchTimestamper) Partition() *cluster.Partition { return bt.core.part }

// Events returns the number of events stamped.
func (bt *BatchTimestamper) Events() int { return bt.prefix + bt.core.events }

// PrefixEvents returns how many events were stamped with full vectors
// before the clustering ran.
func (bt *BatchTimestamper) PrefixEvents() int { return bt.prefix }

// ClusterReceives returns the number of noted cluster receives after the
// batch closed (prefix events are not counted: they keep full vectors by
// design, not because clustering failed).
func (bt *BatchTimestamper) ClusterReceives() int { return bt.core.crEvents }

// Observe ingests the next event in delivery order.
func (bt *BatchTimestamper) Observe(e model.Event) ([]*Timestamp, error) {
	stamped, err := bt.fmts.Observe(e)
	if err != nil {
		return nil, err
	}
	out := make([]*Timestamp, 0, len(stamped))
	for _, st := range stamped {
		ev := st.Event
		if ev.Kind.IsReceive() && ev.HasPartner() {
			bt.graph.Add(int32(ev.ID.Process), int32(ev.Partner.Process), 1)
		}
		t := &Timestamp{ID: ev.ID, Kind: ev.Kind, Partner: ev.Partner}
		if bt.core.part == nil {
			// Batch phase: full Fidge/Mattern timestamp.
			t.Full = st.Clock
			bt.prefix++
			if bt.prefix >= bt.cfg.BatchSize {
				bt.install()
			}
		} else if own := bt.core.decide(ev); own == nil {
			t.Full = st.Clock
		} else {
			t.Cluster = own
			t.Proj = st.Clock.Project(own.Members)
		}
		bt.stamps[t.ID] = t
		out = append(out, t)
	}
	return out, nil
}

// install closes the batch: the static greedy clustering over the observed
// communication becomes the partition.
func (bt *BatchTimestamper) install() {
	groups := strategy.StaticGreedy(bt.graph, bt.cfg.MaxClusterSize)
	part, err := cluster.NewFromGroups(bt.numProcs, groups)
	if err != nil {
		// StaticGreedy returns a complete partition by construction.
		panic(fmt.Sprintf("hct: batch clustering produced invalid partition: %v", err))
	}
	bt.core.part = part
}

// ObserveAll stamps an entire trace.
func (bt *BatchTimestamper) ObserveAll(tr *model.Trace) error {
	for _, e := range tr.Events {
		if _, err := bt.Observe(e); err != nil {
			return fmt.Errorf("hct: at event %v: %w", e.ID, err)
		}
	}
	return bt.fmts.Flush()
}

// Timestamp returns the stored timestamp of an event.
func (bt *BatchTimestamper) Timestamp(id model.EventID) (Timestamp, bool) {
	t, ok := bt.stamps[id]
	if !ok {
		return Timestamp{}, false
	}
	return *t, true
}

// Precedes answers a happened-before query; exact across the batch
// boundary.
func (bt *BatchTimestamper) Precedes(e, f model.EventID) (bool, error) {
	return recursivePrecedes(bt, e, f)
}

// StorageInts totals the stored timestamp sizes under the fixed-vector
// encoding.
func (bt *BatchTimestamper) StorageInts(fixedVector int) int64 {
	var total int64
	for _, t := range bt.stamps {
		total += int64(t.StorageInts(fixedVector, bt.cfg.MaxClusterSize))
	}
	return total
}
