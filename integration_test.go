package clusterts_test

// End-to-end integration tests spanning the whole pipeline: corpus
// generation -> serialization round-trip -> concurrent ingestion through
// the collector -> cluster timestamping -> precedence queries verified
// against ground truth.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	clusterts "repro"
	"repro/internal/model"
)

// integrationWorkloads is a cross-environment subset kept small enough for
// exhaustive oracle verification.
var integrationWorkloads = []string{
	"pvm/ring-44",
	"pvm/treereduce-43",
	"java/session-61",
	"dce/rpc-36",
}

func TestEndToEndPipeline(t *testing.T) {
	for _, name := range integrationWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := clusterts.FindWorkload(name)
			if !ok {
				t.Fatalf("missing corpus spec %s", name)
			}
			tr := spec.Generate()

			// Serialize and reload: the reloaded trace drives the rest.
			var buf bytes.Buffer
			if err := clusterts.WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			loaded, err := clusterts.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Ingest concurrently through the collector.
			m, err := clusterts.NewMonitor(loaded.NumProcs, clusterts.Config{
				MaxClusterSize: 13,
				Decider:        clusterts.MergeOnNth(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			coll := clusterts.NewCollector(m)
			streams := make([][]clusterts.Event, loaded.NumProcs)
			for _, e := range loaded.Events {
				streams[e.ID.Process] = append(streams[e.ID.Process], e)
			}
			var wg sync.WaitGroup
			errCh := make(chan error, loaded.NumProcs)
			for _, stream := range streams {
				stream := stream
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, e := range stream {
						if err := coll.Submit(e); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if err := coll.Close(); err != nil {
				t.Fatal(err)
			}

			st := m.Stats(clusterts.DefaultFixedVector)
			if st.Events != loaded.NumEvents() {
				t.Fatalf("delivered %d of %d events", st.Events, loaded.NumEvents())
			}
			if st.PendingSends != 0 {
				t.Fatalf("pending sends after full delivery: %d", st.PendingSends)
			}
			// Timestamps must be substantially smaller than Fidge/Mattern.
			fmRef := int64(st.Events) * clusterts.DefaultFixedVector
			if st.StorageInts >= fmRef {
				t.Fatalf("no space saving: %d >= %d", st.StorageInts, fmRef)
			}

			// Verify sampled precedence queries against reachability.
			oracle, err := model.NewReachability(loaded)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(99))
			for i := 0; i < 3000; i++ {
				e := loaded.Events[r.Intn(len(loaded.Events))].ID
				f := loaded.Events[r.Intn(len(loaded.Events))].ID
				want := oracle.HappenedBefore(e, f)
				got, err := m.Precedes(e, f)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Precedes(%v,%v) = %v, want %v", e, f, got, want)
				}
			}
		})
	}
}

// TestAllStrategiesProduceExactPrecedence runs a lighter oracle check over
// every public clustering configuration on one computation.
func TestAllStrategiesProduceExactPrecedence(t *testing.T) {
	spec, ok := clusterts.FindWorkload("dce/rpc-36")
	if !ok {
		t.Fatal("missing corpus spec")
	}
	tr := spec.Generate()
	oracle, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}

	staticPart, err := clusterts.StaticClusters(tr, 12)
	if err != nil {
		t.Fatal(err)
	}
	contigPart, err := clusterts.ContiguousClusters(tr.NumProcs, 12)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]clusterts.Config{
		"merge-1st":  {MaxClusterSize: 12, Decider: clusterts.MergeOnFirst()},
		"merge-nth":  {MaxClusterSize: 12, Decider: clusterts.MergeOnNth(10)},
		"static":     {MaxClusterSize: 12, Partition: staticPart, Decider: clusterts.NeverMerge()},
		"contiguous": {MaxClusterSize: 12, Partition: contigPart},
	}
	r := rand.New(rand.NewSource(3))
	for name, cfg := range configs {
		ts, err := clusterts.NewTimestamper(tr.NumProcs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ts.ObserveAll(tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 2000; i++ {
			e := tr.Events[r.Intn(len(tr.Events))].ID
			f := tr.Events[r.Intn(len(tr.Events))].ID
			want := oracle.HappenedBefore(e, f)
			got, err := ts.Precedes(e, f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: Precedes(%v,%v) = %v, want %v", name, e, f, got, want)
			}
		}
	}
}

// TestVariantsThroughFacade exercises the Section 5 variants via the public
// API against the oracle.
func TestVariantsThroughFacade(t *testing.T) {
	spec, ok := clusterts.FindWorkload("pvm/pipeline-36")
	if !ok {
		t.Fatal("missing corpus spec")
	}
	tr := spec.Generate()
	oracle, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}

	bt, err := clusterts.NewBatchTimestamper(tr.NumProcs, clusterts.BatchConfig{
		MaxClusterSize: 12, BatchSize: 2000, Decider: clusterts.MergeOnFirst(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if !bt.Clustered() {
		t.Fatal("batch never clustered")
	}

	mt, err := clusterts.NewMigratingTimestamper(tr.NumProcs, clusterts.MigrateConfig{
		MaxClusterSize: 12, MigrateAfter: 6, Decider: clusterts.MergeOnNth(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		e := tr.Events[r.Intn(len(tr.Events))].ID
		f := tr.Events[r.Intn(len(tr.Events))].ID
		want := oracle.HappenedBefore(e, f)
		got, err := bt.Precedes(e, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch Precedes(%v,%v) = %v, want %v", e, f, got, want)
		}
		got, err = mt.Precedes(e, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("migrating Precedes(%v,%v) = %v, want %v", e, f, got, want)
		}
	}
}

// TestFutureWorkNumbersPinned holds the integers behind examples/futurework
// and EXPERIMENTS.md V1/V2 (java/warmsession-97, maxCS 13, the default fixed
// vector): the engine under the variants may change, these may not.
func TestFutureWorkNumbersPinned(t *testing.T) {
	spec, ok := clusterts.FindWorkload("java/warmsession-97")
	if !ok {
		t.Fatal("missing corpus spec")
	}
	tr := spec.Generate()
	const maxCS = 13
	fixed := clusterts.DefaultFixedVector
	ratio := func(ints int64) string {
		return fmt.Sprintf("%.4f", float64(ints)/float64(int64(tr.NumEvents())*int64(fixed)))
	}

	plain, err := clusterts.NewTimestamper(tr.NumProcs, clusterts.Config{MaxClusterSize: maxCS, Decider: clusterts.MergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if got := plain.ClusterReceives(); got != 6332 {
		t.Errorf("merge-on-1st: %d noted cluster receives, want 6332", got)
	}

	bt, err := clusterts.NewBatchTimestamper(tr.NumProcs, clusterts.BatchConfig{
		MaxClusterSize: maxCS, BatchSize: 3000, Decider: clusterts.MergeOnFirst(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if cr, prefix, r := bt.ClusterReceives(), bt.PrefixEvents(), ratio(bt.StorageInts(fixed)); cr != 5902 || prefix != 3000 || r != "0.4376" {
		t.Errorf("batch(3000, merge-1st): %d noted after the batch, %d prefix events, ratio %s; want 5902, 3000, 0.4376", cr, prefix, r)
	}
	if got := bt.Events(); got != tr.NumEvents() {
		t.Errorf("batch: %d events, want %d", got, tr.NumEvents())
	}

	mt, err := clusterts.NewMigratingTimestamper(tr.NumProcs, clusterts.MigrateConfig{
		MaxClusterSize: maxCS, MigrateAfter: 8, Decider: clusterts.MergeOnFirst(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	// Migration folds other processes' evidence toward the two clusters it
	// retires onto their successors, as a merge does: 3450 noted, 55
	// migrations and 0.1961 while those counts were orphaned, so every number
	// moved the better way.
	if cr, mig, r := mt.ClusterReceives(), mt.Migrations(), ratio(mt.StorageInts(fixed)); cr != 3103 || mig != 64 || r != "0.1808" {
		t.Errorf("migrating(after 8, merge-1st): %d noted, %d migrations, ratio %s; want 3103, 64, 0.1808", cr, mig, r)
	}
}
