package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// queryBenchBatch is sized below queryBatchParallelMin so each QueryBatch
// call runs single-threaded and the goroutines axis of BenchmarkQueryParallel
// measures pure external scaling, not the internal sharding.
const queryBenchBatch = 256

// BenchmarkQueryParallel measures aggregate QueryBatch throughput at
// 1/2/4/GOMAXPROCS concurrent query goroutines, with ingest idle and with a
// live DeliverBatch stream running against the same monitor. The query
// plane takes no lock, so on multi-core hardware the no-ingest series
// scales linearly with goroutines and the with-ingest series stays at the
// same level instead of collapsing behind the writer lock. (On a
// single-core host every series is CPU-bound at the one-goroutine level;
// the instructive number there is that ingest=on loses nothing.)
func BenchmarkQueryParallel(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	half := len(tr.Events) / 2

	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		workers = append(workers, n)
	}
	for _, ingest := range []bool{false, true} {
		for _, g := range workers {
			name := fmt.Sprintf("ingest=%v/goroutines=%d", ingest, g)
			b.Run(name, func(b *testing.B) {
				m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
				if err != nil {
					b.Fatal(err)
				}
				// Queries target the half that is always delivered; the
				// ingest variant streams the other half concurrently.
				if err := m.DeliverBatch(tr.Events[:half]); err != nil {
					b.Fatal(err)
				}
				if !ingest {
					if err := m.DeliverBatch(tr.Events[half:]); err != nil {
						b.Fatal(err)
					}
				}
				batches := make([][]Query, g)
				for w := range batches {
					r := rand.New(rand.NewSource(0xBE7C + int64(w)))
					qs := make([]Query, queryBenchBatch)
					for i := range qs {
						qs[i] = Query{
							Op: OpPrecedes,
							A:  tr.Events[r.Intn(half)].ID,
							B:  tr.Events[r.Intn(half)].ID,
						}
						if i%3 == 0 {
							qs[i].Op = OpConcurrent
						}
					}
					batches[w] = qs
				}

				var ingestWG sync.WaitGroup
				if ingest {
					ingestWG.Add(1)
					go func() {
						defer ingestWG.Done()
						for lo := half; lo < len(tr.Events); lo += 1024 {
							hi := lo + 1024
							if hi > len(tr.Events) {
								hi = len(tr.Events)
							}
							if err := m.DeliverBatch(tr.Events[lo:hi]); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}

				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(qs []Query) {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							res := m.QueryBatch(qs)
							for k := range res {
								if res[k].Err != nil {
									b.Error(res[k].Err)
									return
								}
							}
						}
					}(batches[w])
				}
				wg.Wait()
				b.StopTimer()
				total := float64(b.N) * float64(g) * float64(queryBenchBatch)
				b.ReportMetric(total/b.Elapsed().Seconds(), "queries/s")
				b.ReportMetric(total/float64(b.N), "queries/op")
				ingestWG.Wait()
			})
		}
	}
}

// BenchmarkIngestColumnar is the ingest-path companion: a monitor swallowing
// the whole reference trace through DeliverAll. Construction sits outside the
// timed region (ROADMAP 1(e)), so events/sec, B/op and allocs/op are the
// steady-state ingest figures, and vector-B/event is what the store carved
// for projections, keyframes and delta frames (StoreStats; every event adds
// its 32-byte cell to that). bench/poetbench's hct.engine.* and
// runtime.*_per_event rungs are the repeated-pass form of these figures.
func BenchmarkIngestColumnar(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	b.ReportAllocs()
	var vectorBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.DeliverAll(tr); err != nil {
			b.Fatal(err)
		}
		vectorBytes = m.Pipeline().StoreStats().VectorBytes
	}
	b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(vectorBytes)/float64(len(tr.Events)), "vector-B/event")
}
