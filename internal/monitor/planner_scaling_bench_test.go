package monitor

import (
	"fmt"
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// BenchmarkPlannerScaling isolates what the pipelined planner buys on a
// communication-dense workload: the ring trace makes every other event a
// receive, so the plan stage (the cluster bookkeeping) is as large a
// fraction of delivery as it gets. Each shard count runs twice — plan
// mode inline (planning on the delivering goroutine under planMu, the PR 6
// shape) versus pipelined (planning on the dedicated planner goroutine
// behind the plan queue) — so the series' ratio is the planner-offload win
// and its trend across shards shows when the sequential plan stage stops
// bounding the lanes. On a single-core host the two modes converge: there
// is no second core to hide the plan stage on, and the instructive number
// is the queue's (small) handoff tax.
func BenchmarkPlannerScaling(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	cfg := func() hct.Config {
		return hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}
	}
	const batch = 8192

	modes := []struct {
		name string
		pq   int
	}{
		{"inline", -1},
		{"pipelined", hct.DefaultPlanQueue},
	}
	for _, mode := range modes {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("plan=%s/shards=%d", mode.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				var vectorBytes int64
				for i := 0; i < b.N; i++ {
					// Construction (lanes, planner goroutine) and teardown stay
					// outside the timed region: the series is steady-state ingest.
					b.StopTimer()
					m, err := NewWithOptions(tr.NumProcs, cfg(),
						hct.PipelineOptions{Shards: shards, PlanQueue: mode.pq})
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
					vectorBytes = m.Pipeline().StoreStats().VectorBytes
					m.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(vectorBytes)/float64(len(tr.Events)), "vector-B/event")
			})
		}
	}
}
