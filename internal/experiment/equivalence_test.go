package experiment

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestKernelMatchesReplayFullCorpus is the equivalence property test for the
// sweep kernel: for every corpus computation and every maxCS of the paper's
// sweep range, the kernel's accounting path (closed-form hct.StaticResult
// for never-merge strategies, compact-stream replay for the dynamic ones)
// must produce a Point identical — Result fields and ratio bits — to the
// reference full-event replay. The corpus includes the DCE families, whose
// synchronous pairs exercise the double-count rule on both paths.
//
// In -short mode the size grid is subsampled; the full {2..50} grid runs
// otherwise.
func TestKernelMatchesReplayFullCorpus(t *testing.T) {
	sizes := DefaultSizes()
	if testing.Short() {
		sizes = []int{2, 3, 7, 13, 50}
	}
	strategies := []string{StratMerge1st, StratMergeNth5, StratMergeNth10, StratStatic, StratContiguous}

	cc := NewCorpusContext(workload.Corpus())
	for i := 0; i < cc.Len(); i++ {
		tc := cc.At(i)
		for _, strat := range strategies {
			for _, maxCS := range sizes {
				got, err := runPoint(tc, strat, maxCS, metrics.DefaultFixedVector, nil)
				if err != nil {
					t.Fatalf("runPoint(%s, %s, %d): %v", tc.Trace.Name, strat, maxCS, err)
				}
				want, err := replayPoint(tc, strat, maxCS, metrics.DefaultFixedVector)
				if err != nil {
					t.Fatalf("replayPoint(%s, %s, %d): %v", tc.Trace.Name, strat, maxCS, err)
				}
				if got != want {
					t.Fatalf("%s %s maxCS=%d: kernel %+v != replay %+v", tc.Trace.Name, strat, maxCS, got, want)
				}
			}
		}
	}
}

// TestKernelMatchesReplayAblation covers the O(N^2) ablation clusterings
// (k-medoid, k-means) on the ablation subset at the coarse grid the harness
// actually sweeps them with; their never-merge closed-form path must agree
// with full replay like the rest.
func TestKernelMatchesReplayAblation(t *testing.T) {
	coarse := []int{4, 8, 12, 16, 24, 32, 50}
	names := []string{"pvm/ring-64", "pvm/stencil2d-96", "java/webtier-124", "java/session-97", "dce/rpc-72", "dce/repldir-96"}

	cc := NewCorpusContext(workload.Corpus())
	for _, name := range names {
		tc, ok := cc.ByName(name)
		if !ok {
			t.Fatalf("missing corpus computation %s", name)
		}
		for _, strat := range []string{StratKMedoid, StratKMeans} {
			for _, maxCS := range coarse {
				got, err := runPoint(tc, strat, maxCS, metrics.DefaultFixedVector, nil)
				if err != nil {
					t.Fatalf("runPoint(%s, %s, %d): %v", name, strat, maxCS, err)
				}
				want, err := replayPoint(tc, strat, maxCS, metrics.DefaultFixedVector)
				if err != nil {
					t.Fatalf("replayPoint(%s, %s, %d): %v", name, strat, maxCS, err)
				}
				if got != want {
					t.Fatalf("%s %s maxCS=%d: kernel %+v != replay %+v", name, strat, maxCS, got, want)
				}
			}
		}
	}
}

// TestCorpusSweepMatchesSequentialSweep pins the parallel cell-level sweep to
// the sequential per-trace Sweep: same curves, whatever the worker count.
func TestCorpusSweepMatchesSequentialSweep(t *testing.T) {
	specs := workload.Corpus()[:6]
	sizes := []int{2, 5, 9, 17, 33, 50}
	for _, strat := range []string{StratStatic, StratMergeNth10} {
		cc := NewCorpusContext(specs)
		parallel, err := cc.Sweep(strat, sizes, metrics.DefaultFixedVector, 4)
		if err != nil {
			t.Fatalf("parallel sweep: %v", err)
		}
		if len(parallel) != len(specs) {
			t.Fatalf("parallel sweep returned %d curves, want %d", len(parallel), len(specs))
		}
		for _, c := range parallel {
			tc, ok := cc.ByName(c.Computation)
			if !ok {
				t.Fatalf("curve for unknown computation %s", c.Computation)
			}
			seq, err := Sweep(tc, strat, sizes, metrics.DefaultFixedVector)
			if err != nil {
				t.Fatalf("sequential sweep: %v", err)
			}
			for i := range sizes {
				if c.Ratio[i] != seq.Ratio[i] {
					t.Fatalf("%s %s maxCS=%d: parallel %v != sequential %v",
						c.Computation, strat, sizes[i], c.Ratio[i], seq.Ratio[i])
				}
			}
		}
	}
}
