package monitor

import (
	"fmt"
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkIngestParallel measures delivery throughput across the ingest
// shard counts {1, 2, 4, 8} and two batch sizes, streaming the reference
// trace through the pipelined path (DeliverBatchAsync + one final
// IngestBarrier) the server's collector uses. The shards=1 series is the
// single-writer baseline: the planner stamps inline on the delivering
// goroutine, exactly the pre-sharding delivery path. On multi-core hardware
// the curve scales with shards until the sequential planner saturates; on a
// single-core host every series is CPU-bound at the one-shard level and the
// instructive number is the (small) coordination tax of the extra lanes.
//
// The wal=... series replay the same stream through a pipelined Collector —
// the production submit path — with and without a write-ahead journal at
// the default group-commit (batch) fsync policy, so the pair shows how much
// durability costs relative to the same collector path without it
// (bench/poetbench's wal.* rungs measure it over repeated passes).
func BenchmarkIngestParallel(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	cfg := func() hct.Config {
		return hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, batch := range []int{2048, 8192} {
			b.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// Building and tearing down the monitor (lanes, planner
					// goroutine) is not delivery; keep both off the clock.
					b.StopTimer()
					m, err := NewWithOptions(tr.NumProcs, cfg(), hct.PipelineOptions{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for lo := 0; lo < len(tr.Events); lo += batch {
						hi := lo + batch
						if hi > len(tr.Events) {
							hi = len(tr.Events)
						}
						if err := m.DeliverBatchAsync(tr.Events[lo:hi]); err != nil {
							b.Fatal(err)
						}
					}
					m.IngestBarrier()
					b.StopTimer()
					m.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}

	const walBatch = 8192
	for _, withWAL := range []bool{false, true} {
		for _, shards := range []int{1, 8} {
			name := fmt.Sprintf("wal=off/shards=%d", shards)
			if withWAL {
				name = fmt.Sprintf("wal=batch/shards=%d", shards)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := NewWithOptions(tr.NumProcs, cfg(), hct.PipelineOptions{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					c := NewCollector(m)
					c.pipelined = true
					var wlog *wal.Log
					if withWAL {
						wlog, err = wal.Open(b.TempDir(), wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncBatch})
						if err != nil {
							b.Fatal(err)
						}
						c.journal = wlog
					}
					b.StartTimer()
					for lo := 0; lo < len(tr.Events); lo += walBatch {
						hi := lo + walBatch
						if hi > len(tr.Events) {
							hi = len(tr.Events)
						}
						if _, err := c.SubmitBatch(tr.Events[lo:hi]); err != nil {
							b.Fatal(err)
						}
					}
					m.IngestBarrier()
					if err := c.Close(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					m.Close()
					if wlog != nil {
						if err := wlog.Close(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}
