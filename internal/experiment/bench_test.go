package experiment

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// benchStrategies are the sweep-kernel paths worth tracking: the closed-form
// static path and the heaviest dynamic (stream-replay) path.
var benchStrategies = []string{StratStatic, StratMergeNth10}

// BenchmarkSweepKernel measures one full maxCS sweep (2..50) of a single
// mid-size computation, comparing the reference full-event replay against
// the kernel path the harness uses. The events/sec metric counts trace
// events accounted per wall-clock second across all sweep points.
func BenchmarkSweepKernel(b *testing.B) {
	spec, ok := workload.Find("java/webtier-124")
	if !ok {
		b.Fatal("missing corpus computation java/webtier-124")
	}
	tc := NewTraceContext(spec.Generate())
	sizes := DefaultSizes()
	perSweep := float64(tc.Trace.NumEvents()) * float64(len(sizes))

	for _, strat := range benchStrategies {
		b.Run("replay-"+strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range sizes {
					if _, err := replayPoint(tc, strat, s, metrics.DefaultFixedVector); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
		b.Run("kernel-"+strat, func(b *testing.B) {
			var sc scratch
			for i := 0; i < b.N; i++ {
				for _, s := range sizes {
					if _, err := runPoint(tc, strat, s, metrics.DefaultFixedVector, &sc); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkCorpusSweep measures a full-corpus sweep — every computation ×
// every maxCS in 2..50 — along the reference replay path (the pre-kernel
// harness behaviour) and the kernel path (what cmd/experiments runs). One
// iteration is one whole table of the evaluation.
func BenchmarkCorpusSweep(b *testing.B) {
	cc := NewCorpusContext(workload.Corpus())
	sizes := DefaultSizes()
	var perSweep float64
	for i := 0; i < cc.Len(); i++ {
		perSweep += float64(cc.At(i).Trace.NumEvents()) // generate everything up front
	}
	perSweep *= float64(len(sizes))

	for _, strat := range benchStrategies {
		b.Run("replay-"+strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := 0; c < cc.Len(); c++ {
					tc := cc.At(c)
					for _, s := range sizes {
						if _, err := replayPoint(tc, strat, s, metrics.DefaultFixedVector); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
		b.Run("kernel-"+strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Sweep(strat, sizes, metrics.DefaultFixedVector, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
