package monitor

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestServerStressProducersAndQueriers runs the production traffic shape
// under the race detector: N producer connections stream shards of one
// trace concurrently while M query connections hammer the read path with
// batched precedence queries. The server must stay consistent: every event ingested exactly once, zero held events,
// and a post-hoc query sample agreeing with an in-order reference.
func TestServerStressProducersAndQueriers(t *testing.T) {
	name := "pvm/ring-64"
	if testing.Short() {
		name = "dce/rpc-36"
	}
	spec, ok := workload.Find(name)
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()

	srv, addr := startServer(t, tr.NumProcs, ServerConfig{
		MaxBatch:    128,
		SubmitQueue: 8,
	})

	// Shard processes round-robin over the producers; each producer streams
	// its processes' events in per-process order but in cross-process
	// interleavings of its own choosing.
	const producers, queriers = 8, 4
	streams := perProcessStreams(tr)
	shards := make([][]model.Event, producers)
	for p, stream := range streams {
		shards[p%producers] = append(shards[p%producers], stream...)
	}

	var producing atomic.Bool
	producing.Store(true)
	var prodWG, queryWG sync.WaitGroup
	errCh := make(chan error, producers+queriers)

	for w := 0; w < producers; w++ {
		w := w
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			r := rand.New(rand.NewSource(int64(w)))
			sess, err := DialV2(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			shard := shards[w]
			for lo := 0; lo < len(shard); {
				hi := lo + 1 + r.Intn(64)
				if hi > len(shard) {
					hi = len(shard)
				}
				if err := sess.ReportBatch(shard[lo:hi]); err != nil {
					errCh <- err
					return
				}
				lo = hi
			}
		}()
	}

	for w := 0; w < queriers; w++ {
		w := w
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			c, err := DialV2(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for producing.Load() {
				qs := make([]Query, 16)
				for i := range qs {
					qs[i] = Query{
						Op: QueryOp(r.Intn(2)),
						A:  tr.Events[r.Intn(len(tr.Events))].ID,
						B:  tr.Events[r.Intn(len(tr.Events))].ID,
					}
				}
				// Individual queries may hit not-yet-delivered events (a
				// per-query error); the exchange itself must succeed.
				if _, err := c.QueryBatch(qs); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	prodWG.Wait()
	producing.Store(false) // stop queriers after the last producer finishes
	queryWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Everything delivered, nothing stranded, and answers agree with an
	// in-order reference.
	qc, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := qc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "held=0") {
		t.Fatalf("events stranded: %s", stats)
	}
	// Same configuration as startServer's monitor.
	ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		e := tr.Events[r.Intn(len(tr.Events))].ID
		f := tr.Events[r.Intn(len(tr.Events))].ID
		got, err := qc.Precedes(e, f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Precedes(e, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Precedes(%v,%v): server %v, reference %v", e, f, got, want)
		}
	}
	qc.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
