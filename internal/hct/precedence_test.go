package hct

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// TestPrecedenceMatchesOracleAndFM is the central correctness property of
// the reproduction: for random traces and every clustering strategy, the
// cluster-timestamp precedence test agrees with (a) the Fidge/Mattern test
// and (b) ground-truth graph reachability, over all event pairs.
func TestPrecedenceMatchesOracleAndFM(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(8)
		tr := randomLocalTrace(r, n, 120)
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: invalid trace: %v", trial, err)
		}

		oracle, err := model.NewReachability(tr)
		if err != nil {
			t.Fatal(err)
		}
		stamped, err := fm.StampAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		fmClock := make(map[model.EventID]vclock.Clock, len(stamped))
		for _, st := range stamped {
			fmClock[st.Event.ID] = st.Clock
		}

		maxCS := 2 + r.Intn(n)
		configs := map[string]Config{
			"merge-1st":   {MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()},
			"merge-nth-1": {MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(1)},
			"merge-nth-5": {MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(5)},
			"singletons":  {MaxClusterSize: maxCS},
		}
		// Static greedy clustering over the trace's own communication
		// graph, plus fixed contiguous clusters.
		g := commgraph.FromTrace(tr)
		staticGroups := strategy.StaticGreedy(g, maxCS)
		staticPart, err := cluster.NewFromGroups(tr.NumProcs, staticGroups)
		if err != nil {
			t.Fatal(err)
		}
		configs["static-greedy"] = Config{MaxClusterSize: maxCS, Partition: staticPart}
		contigPart, err := cluster.NewFromGroups(tr.NumProcs, cluster.Contiguous(tr.NumProcs, maxCS))
		if err != nil {
			t.Fatal(err)
		}
		configs["contiguous"] = Config{MaxClusterSize: maxCS, Partition: contigPart}

		for name, cfg := range configs {
			ts, err := NewTimestamper(tr.NumProcs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.ObserveAll(tr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range tr.Events {
				for j := range tr.Events {
					e, f := tr.Events[i].ID, tr.Events[j].ID
					want := oracle.HappenedBefore(e, f)
					wantFM := fm.Precedes(e, fmClock[e], f, fmClock[f])
					if want != wantFM {
						t.Fatalf("trial %d: FM disagrees with oracle on (%v,%v): fm=%v oracle=%v", trial, e, f, wantFM, want)
					}
					got, err := ts.Precedes(e, f)
					if err != nil {
						t.Fatalf("%s: Precedes(%v,%v): %v", name, e, f, err)
					}
					if got != want {
						te, _ := ts.Timestamp(e)
						tf, _ := ts.Timestamp(f)
						t.Fatalf("trial %d strategy %s maxCS=%d: Precedes(%v,%v) = %v, want %v\n e: %v\n f: %v",
							trial, name, maxCS, e, f, got, want, te, tf)
					}
				}
			}
		}
	}
}
