package experiment

import (
	"testing"

	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestSweepKernelMatchesColumnarMonitor ties the figures to the live system:
// the sweep kernel computes every point without materializing timestamps,
// and the monitoring entity stores them in the columnar store — the two
// must account identically. For a corpus subsample across the sweep grid,
// a live Monitor ingesting the whole trace must report exactly the kernel's
// Result fields, and its O(1) StorageInts must equal the storage the
// kernel's point charges. This is the guard that the columnar rework keeps
// every figure and table byte-identical: the harness output is a pure
// function of these numbers.
func TestSweepKernelMatchesColumnarMonitor(t *testing.T) {
	sizes := []int{2, 5, 13, 34, 50}
	if testing.Short() {
		sizes = []int{2, 13, 50}
	}
	strategies := []string{StratMerge1st, StratMergeNth5, StratStatic}

	cc := NewCorpusContext(workload.Corpus())
	for i := 0; i < cc.Len(); i++ {
		if i%4 != 0 {
			continue
		}
		tc := cc.At(i)
		t.Run(tc.Trace.Name, func(t *testing.T) {
			t.Parallel()
			for _, strat := range strategies {
				for _, maxCS := range sizes {
					want, err := runPoint(tc, strat, maxCS, metrics.DefaultFixedVector, nil)
					if err != nil {
						t.Fatalf("runPoint(%s, %d): %v", strat, maxCS, err)
					}

					cfg := hct.Config{MaxClusterSize: maxCS}
					switch strat {
					case StratMerge1st:
						cfg.Decider = strategy.NewMergeOnFirst()
					case StratMergeNth5:
						cfg.Decider = strategy.NewMergeOnNth(5)
					case StratStatic:
						part, cv, err := staticConfig(tc, strat, maxCS)
						if err != nil {
							t.Fatal(err)
						}
						if cv != maxCS {
							t.Fatalf("static clusterVector %d != maxCS %d", cv, maxCS)
						}
						cfg.Partition = part
					}
					m, err := monitor.New(tc.Trace.NumProcs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.DeliverAll(tc.Trace); err != nil {
						t.Fatalf("%s maxCS=%d: %v", strat, maxCS, err)
					}

					st := m.Stats(metrics.DefaultFixedVector)
					r := want.Result
					if st.Events != r.Events || st.ClusterReceives != r.ClusterReceives ||
						st.MergedReceives != r.MergedReceives ||
						st.LiveClusters != r.LiveClusters || st.MaxLiveCluster != r.MaxLiveCluster {
						t.Fatalf("%s maxCS=%d: monitor stats %+v != kernel result %+v", strat, maxCS, st, r)
					}
					cr := int64(r.ClusterReceives)
					kernelInts := cr*int64(metrics.DefaultFixedVector) +
						(int64(r.Events)-cr)*int64(want.ClusterVector)
					if st.StorageInts != kernelInts {
						t.Fatalf("%s maxCS=%d: columnar store charges %d ints, kernel point %d",
							strat, maxCS, st.StorageInts, kernelInts)
					}
				}
			}
		})
	}
}
