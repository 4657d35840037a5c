package monitor

import (
	"fmt"
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// BenchmarkServerIngest measures end-to-end ingestion throughput over
// loopback TCP at several batch sizes, on a 300-process ring trace; batch1
// pays one frame and one round trip per event.
func BenchmarkServerIngest(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()

	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("v2/batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Fresh monitor and server per iteration: events can only
				// be ingested once.
				m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
				if err != nil {
					b.Fatal(err)
				}
				srv := NewServer(m, ServerConfig{FixedVector: tr.NumProcs})
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
