package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fm"
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
// Migration breaks the monotone-growth property the fast noted-cluster-
// receive precedence test relies on, so precedence uses the epoch-agnostic
// recursive test, which remains exact under arbitrary cluster evolution.
type MigratingTimestamper struct {
	numProcs int
	cfg      MigrateConfig
	fmts     *fm.Timestamper
	core     *clusterer

	stamps map[model.EventID]*Timestamp
	// crTowards counts, per process, noted cluster receives whose sender
	// lay in a given live cluster. Entries are re-keyed on merge and
	// cleared on migration.
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
	core, err := newClusterer(numProcs, Config{MaxClusterSize: cfg.MaxClusterSize, Decider: cfg.Decider})
	if err != nil {
		return nil, err
	}
	if cfg.MigrateAfter < 1 {
		return nil, fmt.Errorf("%w: MigrateAfter=%d", ErrBadConfig, cfg.MigrateAfter)
	}
	crTowards := make([]map[cluster.ID]int, numProcs)
	for i := range crTowards {
		crTowards[i] = make(map[cluster.ID]int)
	}
	mt := &MigratingTimestamper{
		numProcs:  numProcs,
		cfg:       cfg,
		fmts:      fm.NewTimestamper(numProcs),
		core:      core,
		stamps:    make(map[model.EventID]*Timestamp),
		crTowards: crTowards,
	}
	core.decider = rekeyOnMerge{core.decider, mt}
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
	d.mt.rekeyCounts(a, b, c)
}

// Events returns the number of events stamped.
func (mt *MigratingTimestamper) Events() int { return mt.core.events }

// ClusterReceives returns the number of noted cluster receives.
func (mt *MigratingTimestamper) ClusterReceives() int { return mt.core.crEvents }

// Migrations returns the number of process migrations performed.
func (mt *MigratingTimestamper) Migrations() int { return mt.migrations }

// Partition exposes the live partition (read-only use).
func (mt *MigratingTimestamper) Partition() *cluster.Partition { return mt.core.part }

// Observe ingests the next event in delivery order.
func (mt *MigratingTimestamper) Observe(e model.Event) ([]*Timestamp, error) {
	stamped, err := mt.fmts.Observe(e)
	if err != nil {
		return nil, err
	}
	out := make([]*Timestamp, 0, len(stamped))
	for _, st := range stamped {
		out = append(out, mt.assign(st))
	}
	return out, nil
}

func (mt *MigratingTimestamper) assign(st fm.Stamped) *Timestamp {
	ev := st.Event
	t := &Timestamp{ID: ev.ID, Kind: ev.Kind, Partner: ev.Partner}
	if own := mt.core.decide(ev); own == nil {
		t.Full = st.Clock
		mt.noteCRTowards(int32(ev.ID.Process), int32(ev.Partner.Process))
	} else {
		t.Cluster = own
		t.Proj = st.Clock.Project(own.Members)
	}
	mt.stamps[t.ID] = t
	return t
}

// noteCRTowards records a cluster receive on process p whose sender lives in
// the sender's live cluster, migrating p if the evidence threshold is met.
func (mt *MigratingTimestamper) noteCRTowards(p, sender int32) {
	target := mt.core.part.ClusterOf(sender)
	counts := mt.crTowards[p]
	counts[target.ID]++
	if counts[target.ID] < mt.cfg.MigrateAfter {
		return
	}
	if target.Size()+1 > mt.cfg.MaxClusterSize {
		return // no room; keep counting in case the target shrinks
	}
	mt.core.part.Migrate(p, target.ID)
	mt.migrations++
	// The process starts fresh in its new home; stale counts toward the
	// retired cluster IDs would never match live clusters anyway.
	mt.crTowards[p] = make(map[cluster.ID]int)
}

// rekeyCounts folds per-process counters after clusters a and b merge into c.
func (mt *MigratingTimestamper) rekeyCounts(a, b, c cluster.ID) {
	for p := range mt.crTowards {
		counts := mt.crTowards[p]
		if n := counts[a] + counts[b]; n > 0 {
			delete(counts, a)
			delete(counts, b)
			counts[c] += n
		}
	}
}

// ObserveAll stamps an entire trace.
func (mt *MigratingTimestamper) ObserveAll(tr *model.Trace) error {
	for _, e := range tr.Events {
		if _, err := mt.Observe(e); err != nil {
			return fmt.Errorf("hct: at event %v: %w", e.ID, err)
		}
	}
	return mt.fmts.Flush()
}

// Timestamp returns the stored timestamp of an event.
func (mt *MigratingTimestamper) Timestamp(id model.EventID) (Timestamp, bool) {
	t, ok := mt.stamps[id]
	if !ok {
		return Timestamp{}, false
	}
	return *t, true
}

// Precedes answers a happened-before query; exact under migration.
func (mt *MigratingTimestamper) Precedes(e, f model.EventID) (bool, error) {
	return recursivePrecedes(mt, e, f)
}

// StorageInts totals the stored timestamp sizes under the fixed-vector
// encoding.
func (mt *MigratingTimestamper) StorageInts(fixedVector int) int64 {
	var total int64
	for _, t := range mt.stamps {
		total += int64(t.StorageInts(fixedVector, mt.cfg.MaxClusterSize))
	}
	return total
}
