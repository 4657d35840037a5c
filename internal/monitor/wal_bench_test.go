package monitor

import (
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkWALIngest measures what durability costs on the batched ingest
// path: the same loopback v2 stream as BenchmarkServerIngest (batch 1024),
// with the collector journaling every delivered run to a write-ahead log
// under each fsync policy. "none" is the no-WAL baseline; the acceptance
// target is batch-policy throughput within 25% of it.
func BenchmarkWALIngest(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	const batch = 1024

	for _, policy := range []string{"none", "never", "batch", "always"} {
		b.Run("fsync="+policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
				if err != nil {
					b.Fatal(err)
				}
				res := TenantResources{Monitor: m}
				var wlog *wal.Log
				if policy != "none" {
					p, err := wal.ParseSyncPolicy(policy)
					if err != nil {
						b.Fatal(err)
					}
					wlog, err = wal.Open(b.TempDir(), wal.Options{NumProcs: tr.NumProcs, Sync: p})
					if err != nil {
						b.Fatal(err)
					}
					res.Journal = wlog
				}
				srv := serveDefault(b, res, ServerConfig{FixedVector: tr.NumProcs})
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
