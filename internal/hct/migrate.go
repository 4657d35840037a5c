package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/strategy"
)

// MigratingTimestamper implements the second future-work variant of
// Section 5 of the paper: processes are permitted to migrate between
// clusters when it becomes apparent that the clustering initially selected
// is a poor one.
//
// It runs the usual dynamic algorithm (singleton clusters, a merge Decider)
// and additionally tracks, per process, how many noted cluster receives it
// has accumulated against each foreign cluster. When a process has paid
// MigrateAfter cluster receives toward one cluster — evidence its placement
// is wrong — and that cluster has room, the process migrates there.
//
// Migration breaks [clusters-only-grow], so precedence uses the
// epoch-agnostic recursive test, which remains exact under arbitrary cluster
// evolution.
type MigratingTimestamper struct {
	variant
	cfg MigrateConfig

	// crTowards counts, per process, noted cluster receives whose sender
	// lay in a given live cluster. Entries toward a retired cluster are
	// re-keyed onto its successor, on merge and on migration; a migrating
	// process's own are cleared.
	crTowards []map[cluster.ID]int

	migrations int
}

// MigrateConfig parameterizes a MigratingTimestamper.
type MigrateConfig struct {
	// MaxClusterSize is the cluster-size bound (maxCS).
	MaxClusterSize int
	// Decider directs ordinary merging; nil means never merge (migration
	// only).
	Decider strategy.Decider
	// MigrateAfter is the number of noted cluster receives a process must
	// accumulate toward a single cluster before it migrates there.
	MigrateAfter int
}

// NewMigratingTimestamper returns a migrating timestamper.
func NewMigratingTimestamper(numProcs int, cfg MigrateConfig) (*MigratingTimestamper, error) {
	if cfg.MigrateAfter < 1 {
		return nil, fmt.Errorf("%w: MigrateAfter=%d", ErrBadConfig, cfg.MigrateAfter)
	}
	mt := &MigratingTimestamper{cfg: cfg}
	if err := mt.init(numProcs, Config{MaxClusterSize: cfg.MaxClusterSize, Decider: cfg.Decider}, mt.decide); err != nil {
		return nil, err
	}
	core := mt.ts.core
	core.decider = rekeyOnMerge{core.decider, mt}
	mt.crTowards = make([]map[cluster.ID]int, numProcs)
	for i := range mt.crTowards {
		mt.crTowards[i] = make(map[cluster.ID]int)
	}
	return mt, nil
}

// rekeyOnMerge wraps the configured Decider so every merge the core performs
// also folds the per-process migration evidence onto the merged cluster.
type rekeyOnMerge struct {
	strategy.Decider
	mt *MigratingTimestamper
}

func (d rekeyOnMerge) OnMerge(a, b, c cluster.ID) {
	d.Decider.OnMerge(a, b, c)
	d.mt.rekeyCounts(c, a, b)
}

// Events returns the number of events stamped.
func (mt *MigratingTimestamper) Events() int { return mt.ts.Events() }

// ClusterReceives returns the number of noted cluster receives.
func (mt *MigratingTimestamper) ClusterReceives() int { return mt.ts.ClusterReceives() }

// Migrations returns the number of process migrations performed.
func (mt *MigratingTimestamper) Migrations() int { return mt.migrations }

// Partition exposes the live partition (read-only use).
func (mt *MigratingTimestamper) Partition() *cluster.Partition { return mt.ts.Partition() }

// StorageInts totals the stored timestamp sizes under the fixed-vector
// encoding.
func (mt *MigratingTimestamper) StorageInts(fixedVector int) int64 {
	return mt.ts.StorageInts(fixedVector)
}

// decide is the migration policy on the engine's plan stage: the core's rule
// decides, and a receive it notes is evidence toward the sender's cluster.
func (mt *MigratingTimestamper) decide(e model.Event) *cluster.Info {
	own := mt.ts.core.decide(e)
	if own == nil {
		mt.noteCRTowards(int32(e.ID.Process), int32(e.Partner.Process))
	}
	return own
}

// noteCRTowards records a cluster receive on process p whose sender lives in
// the sender's live cluster, migrating p if the evidence threshold is met.
func (mt *MigratingTimestamper) noteCRTowards(p, sender int32) {
	target := mt.ts.core.part.ClusterOf(sender)
	counts := mt.crTowards[p]
	counts[target.ID]++
	if counts[target.ID] < mt.cfg.MigrateAfter {
		return
	}
	if target.Size()+1 > mt.cfg.MaxClusterSize {
		return // no room; keep counting in case the target shrinks
	}
	src := mt.ts.core.part.ClusterOf(p).ID
	newSrc, newDst := mt.ts.core.part.Migrate(p, target.ID)
	mt.migrations++
	// Migrate retires both clusters it touches. What every other process
	// counted toward them is evidence toward their successors: the grown
	// destination, and what is left of the source — or, when p was its last
	// member, the destination, where that member now lives.
	srcNow := newDst
	if newSrc != nil {
		srcNow = newSrc
	}
	mt.rekeyCounts(newDst.ID, target.ID)
	mt.rekeyCounts(srcNow.ID, src)
	// The process starts fresh in its new home.
	mt.crTowards[p] = make(map[cluster.ID]int)
}

// rekeyCounts folds every process's counts toward the retired clusters olds
// onto their successor c.
func (mt *MigratingTimestamper) rekeyCounts(c cluster.ID, olds ...cluster.ID) {
	for _, counts := range mt.crTowards {
		n := 0
		for _, id := range olds {
			n += counts[id]
			delete(counts, id)
		}
		if n > 0 {
			counts[c] += n
		}
	}
}
