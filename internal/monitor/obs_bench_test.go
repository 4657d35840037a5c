package monitor

import (
	"testing"

	"repro/internal/hct"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// BenchmarkObsOverhead measures the telemetry tax on the hot ingest path:
// the same loopback v2/batch1024 loop as BenchmarkServerIngest, across the
// tracing grid —
//
//	off           no instruments at all (the baseline)
//	on            histograms + op traces, tracing plane idle (head rate 0,
//	              no slow ops): the untraced fast path every batch takes
//	tail-only     head sampling off, SlowOp 1ns so every batch is
//	              tail-captured as a root-only trace (worst-case tail cost)
//	head-sampled  default head rate (25/s): the production configuration,
//	              where the occasional batch carries a full span trace
//	traced-all    every batch carries a full span trace — the upper bound,
//	              never a production setting
//
// The acceptance budget for this repo is "on" and "head-sampled" throughput
// within 3% of "off".
func BenchmarkObsOverhead(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	const batch = 1024

	for _, mode := range []string{"off", "on", "tail-only", "head-sampled", "traced-all"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
				if err != nil {
					b.Fatal(err)
				}
				cfg := ServerConfig{FixedVector: tr.NumProcs}
				if mode != "off" {
					// A fresh registry per iteration: instrument names are
					// registered once per telemetry set.
					tel := obs.NewTelemetry(obs.NewRegistry())
					switch mode {
					case "on":
						tel.Sampler = obs.NewSampler(0)
						tel.SlowOp = 0
					case "tail-only":
						tel.Sampler = obs.NewSampler(0)
						tel.SlowOp = 1 // every batch tail-captured
					case "head-sampled":
						tel.Sampler = obs.NewSampler(obs.DefaultTraceRate)
						tel.SlowOp = 0
					case "traced-all":
						tel.Sampler = obs.NewSampler(1e9)
						tel.SlowOp = 0
					}
					cfg.Obs = tel
				}
				srv := serveDefault(b, TenantResources{Monitor: m}, cfg)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				sess, err := DialV2(addr.String())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()

				for lo := 0; lo < len(tr.Events); lo += batch {
					hi := lo + batch
					if hi > len(tr.Events) {
						hi = len(tr.Events)
					}
					if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}

				b.StopTimer()
				if held := srv.Default().Held(); held != 0 {
					b.Fatalf("%d events held after ingestion", held)
				}
				sess.Close()
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
