package hct

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/poset"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// checkStampsAgainstFM holds every stamp a variant stored for tr to the
// Fidge/Mattern clock of its event: whole for a full vector, projected over
// Cluster.Members otherwise.
func checkStampsAgainstFM(t *testing.T, label string, tr *model.Trace, src stampSource) {
	t.Helper()
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stamped {
		id := st.Event.ID
		got, ok := src.Timestamp(id)
		if !ok {
			t.Fatalf("%s: Timestamp(%v) missing", label, id)
		}
		if got.Kind != st.Event.Kind {
			t.Fatalf("%s: %v stored as %v, delivered as %v", label, id, got.Kind, st.Event.Kind)
		}
		if got.Full != nil {
			if got.Cluster != nil || !got.Full.Equal(st.Clock) {
				t.Fatalf("%s: %v Full = %v, Fidge/Mattern %v", label, id, got.Full, st.Clock)
			}
		} else if proj := st.Clock.Project(got.Cluster.Members); !vclock.Clock(got.Proj).Equal(vclock.Clock(proj)) {
			t.Fatalf("%s: %v Proj = %v over %v, Fidge/Mattern projects to %v", label, id, got.Proj, got.Cluster, proj)
		}
	}
}

func TestBatchConfigErrors(t *testing.T) {
	if _, err := NewBatchTimestamper(0, BatchConfig{MaxClusterSize: 2, BatchSize: 10}); !errors.Is(err, ErrBadConfig) {
		t.Error("numProcs=0 accepted")
	}
	if _, err := NewBatchTimestamper(2, BatchConfig{MaxClusterSize: 0, BatchSize: 10}); !errors.Is(err, ErrBadConfig) {
		t.Error("maxCS=0 accepted")
	}
	if _, err := NewBatchTimestamper(2, BatchConfig{MaxClusterSize: 2, BatchSize: 0}); !errors.Is(err, ErrBadConfig) {
		t.Error("batch=0 accepted")
	}
}

func TestMigrateConfigErrors(t *testing.T) {
	if _, err := NewMigratingTimestamper(0, MigrateConfig{MaxClusterSize: 2, MigrateAfter: 3}); !errors.Is(err, ErrBadConfig) {
		t.Error("numProcs=0 accepted")
	}
	if _, err := NewMigratingTimestamper(2, MigrateConfig{MaxClusterSize: 0, MigrateAfter: 3}); !errors.Is(err, ErrBadConfig) {
		t.Error("maxCS=0 accepted")
	}
	if _, err := NewMigratingTimestamper(2, MigrateConfig{MaxClusterSize: 2, MigrateAfter: 0}); !errors.Is(err, ErrBadConfig) {
		t.Error("migrateAfter=0 accepted")
	}
}

func TestBatchPhaseTransition(t *testing.T) {
	// A ring where the batch covers two full rounds.
	b := model.NewBuilder("batch", 6)
	for round := 0; round < 10; round++ {
		for p := 0; p < 6; p++ {
			b.Message(model.ProcessID(p), model.ProcessID((p+1)%6))
		}
	}
	tr := b.Trace()

	bt, err := NewBatchTimestamper(6, BatchConfig{MaxClusterSize: 3, BatchSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if !bt.Clustered() {
		t.Fatal("batch never closed")
	}
	if bt.PrefixEvents() != 24 {
		t.Fatalf("PrefixEvents = %d, want 24", bt.PrefixEvents())
	}
	if bt.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d", bt.Events())
	}
	// Every prefix event holds a full vector; clustering bound respected.
	full := 0
	for _, e := range tr.Events[:24] {
		ts, ok := bt.Timestamp(e.ID)
		if !ok {
			t.Fatalf("missing prefix timestamp %v", e.ID)
		}
		if ts.Full != nil {
			full++
		}
	}
	if full != 24 {
		t.Fatalf("prefix full stamps = %d", full)
	}
	if bt.Partition().MaxLiveSize() > 3 {
		t.Fatalf("cluster bound violated: %d", bt.Partition().MaxLiveSize())
	}
	// Post-batch events mostly carry projections (ring clusters capture
	// most traffic).
	proj := 0
	for _, e := range tr.Events[24:] {
		ts, _ := bt.Timestamp(e.ID)
		if ts.Full == nil {
			proj++
		}
	}
	if proj == 0 {
		t.Fatal("no projections after the batch closed")
	}
	if bt.StorageInts(300) <= 0 {
		t.Fatal("no storage accounted")
	}
}

func TestBatchDynamicDeciderStillMerges(t *testing.T) {
	// Communication in the batch is only between 0 and 1; afterwards 2
	// and 3 start talking — the static prefix clustering cannot predict
	// it, the dynamic decider merges them on first contact.
	b := model.NewBuilder("batch-dyn", 4)
	for i := 0; i < 6; i++ {
		b.Message(0, 1)
	}
	for i := 0; i < 6; i++ {
		b.Message(2, 3)
	}
	tr := b.Trace()
	bt, err := NewBatchTimestamper(4, BatchConfig{MaxClusterSize: 2, BatchSize: 12, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	part := bt.Partition()
	if part.ClusterOf(2) != part.ClusterOf(3) {
		t.Fatal("post-batch merge did not happen")
	}
	if bt.ClusterReceives() != 1 {
		// Exactly one CR: the first 2->3 receive triggers the merge...
		// which makes it a merged receive, so zero noted CRs.
		if bt.ClusterReceives() != 0 {
			t.Fatalf("ClusterReceives = %d", bt.ClusterReceives())
		}
	}
}

func TestMigrationHappensAndHelps(t *testing.T) {
	// Processes 0 and 1 talk constantly but start in separate singleton
	// clusters with a never-merge decider: only migration can co-cluster
	// them.
	b := model.NewBuilder("mig", 3)
	for i := 0; i < 40; i++ {
		b.Message(0, 1)
		b.Message(1, 0)
	}
	tr := b.Trace()
	mt, err := NewMigratingTimestamper(3, MigrateConfig{MaxClusterSize: 2, MigrateAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if mt.Migrations() == 0 {
		t.Fatal("no migration happened")
	}
	if mt.Partition().ClusterOf(0) != mt.Partition().ClusterOf(1) {
		t.Fatal("migration did not co-cluster the chatting pair")
	}
	// After migration, cluster receives stop accumulating: far fewer than
	// the 80 receives in the trace.
	if mt.ClusterReceives() >= 40 {
		t.Fatalf("ClusterReceives = %d, migration did not help", mt.ClusterReceives())
	}
	if mt.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d", mt.Events())
	}
	if mt.StorageInts(300) <= 0 {
		t.Fatal("no storage accounted")
	}
}

func TestMigrationRespectsSizeBound(t *testing.T) {
	// Everyone wants to join process 0's cluster; the bound must hold.
	b := model.NewBuilder("mig-bound", 5)
	for i := 0; i < 30; i++ {
		for p := 1; p < 5; p++ {
			b.Message(0, model.ProcessID(p))
		}
	}
	tr := b.Trace()
	mt, err := NewMigratingTimestamper(5, MigrateConfig{MaxClusterSize: 3, MigrateAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if mt.Partition().MaxLiveSize() > 3 {
		t.Fatalf("size bound violated: %d", mt.Partition().MaxLiveSize())
	}
	if err := mt.Partition().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestVariantPrecedenceMatchesOracle is the correctness property for both
// future-work variants plus the recursive test applied to the standard
// engine: all must agree with graph reachability on every event pair of
// random traces.
func TestVariantPrecedenceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 3 + r.Intn(7)
		tr := randomLocalTrace(r, n, 110)
		oracle, err := poset.NewOracleFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		maxCS := 2 + r.Intn(n)

		bt, err := NewBatchTimestamper(n, BatchConfig{
			MaxClusterSize: maxCS,
			BatchSize:      20 + r.Intn(40),
			Decider:        strategy.NewMergeOnFirst(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.ObserveAll(tr); err != nil {
			t.Fatal(err)
		}

		mt, err := NewMigratingTimestamper(n, MigrateConfig{
			MaxClusterSize: maxCS,
			Decider:        strategy.NewMergeOnNth(3),
			MigrateAfter:   2 + r.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.ObserveAll(tr); err != nil {
			t.Fatal(err)
		}

		ts, err := NewTimestamper(n, Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.ObserveAll(tr); err != nil {
			t.Fatal(err)
		}

		checkStampsAgainstFM(t, "batch", tr, bt)
		checkStampsAgainstFM(t, "migrate", tr, mt)

		for i := range tr.Events {
			for j := range tr.Events {
				e, f := tr.Events[i].ID, tr.Events[j].ID
				want := oracle.HappenedBefore(e, f)

				got, err := bt.Precedes(e, f)
				if err != nil {
					t.Fatalf("batch Precedes(%v,%v): %v", e, f, err)
				}
				if got != want {
					t.Fatalf("trial %d batch: Precedes(%v,%v) = %v, want %v", trial, e, f, got, want)
				}

				got, err = mt.Precedes(e, f)
				if err != nil {
					t.Fatalf("migrate Precedes(%v,%v): %v", e, f, err)
				}
				if got != want {
					t.Fatalf("trial %d migrate (%d migrations): Precedes(%v,%v) = %v, want %v",
						trial, mt.Migrations(), e, f, got, want)
				}

				// The recursive test must agree with the engine's fast
				// noted-cluster-receive test on ordinary runs too.
				got, err = recursivePrecedes(ts, e, f)
				if err != nil {
					t.Fatalf("recursive Precedes(%v,%v): %v", e, f, err)
				}
				if got != want {
					t.Fatalf("trial %d recursive-on-engine: Precedes(%v,%v) = %v, want %v", trial, e, f, got, want)
				}
			}
		}
	}
}

// TestBatchBoundaryInsideSyncPair closes the batch between the two halves of
// a synchronous pair: the halves are decided one after the other, so the
// first keeps its full vector and the second is stamped under the partition
// the first one's arrival installed — both with the pair's joint clock.
func TestBatchBoundaryInsideSyncPair(t *testing.T) {
	b := model.NewBuilder("sync-boundary", 3)
	b.Message(0, 1)
	b.Message(1, 0)
	b.Sync(0, 1) // events 5 and 6: the batch of 5 closes on the first half
	b.Message(1, 2)
	tr := b.Trace()
	first, second := tr.Events[4].ID, tr.Events[5].ID

	bt, err := NewBatchTimestamper(3, BatchConfig{MaxClusterSize: 2, BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if bt.PrefixEvents() != 5 || bt.Events() != tr.NumEvents() {
		t.Fatalf("prefix %d of %d events, want 5 of %d", bt.PrefixEvents(), bt.Events(), tr.NumEvents())
	}
	t1, _ := bt.Timestamp(first)
	t2, _ := bt.Timestamp(second)
	if t1.Kind != model.Sync || t1.Full == nil {
		t.Fatalf("first sync half %v: want a full vector", t1)
	}
	if t2.Kind != model.Sync || t2.Cluster == nil || t2.Cluster != bt.Partition().ClusterOf(int32(second.Process)) {
		t.Fatalf("second sync half %v: want a projection over the installed cluster %v", t2, bt.Partition().ClusterOf(int32(second.Process)))
	}
	// After the batch: the second half and the send project over {0,1}; the
	// receive on process 2 is a noted cluster receive.
	if got := bt.StorageInts(300); bt.ClusterReceives() != 1 || got != 6*300+2*2 {
		t.Fatalf("StorageInts = %d with %d noted, want 6 full vectors (1 noted) and 2 projections", got, bt.ClusterReceives())
	}
	checkStampsAgainstFM(t, "batch", tr, bt)
}

func TestRecursivePrecedesErrors(t *testing.T) {
	bt, err := NewBatchTimestamper(2, BatchConfig{MaxClusterSize: 2, BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	// One known, one unknown.
	if err := bt.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	// Identical events.
	if got, err := bt.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 0, Index: 1}); err != nil || got {
		t.Fatalf("self precedence = %v, %v", got, err)
	}
}

func TestVariantObserveAllPropagateErrors(t *testing.T) {
	bad := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	bt, _ := NewBatchTimestamper(2, BatchConfig{MaxClusterSize: 2, BatchSize: 5})
	if err := bt.ObserveAll(bad); err == nil {
		t.Error("batch accepted invalid stream")
	}
	mt, _ := NewMigratingTimestamper(2, MigrateConfig{MaxClusterSize: 2, MigrateAfter: 2})
	if err := mt.ObserveAll(bad); err == nil {
		t.Error("migrate accepted invalid stream")
	}
}
