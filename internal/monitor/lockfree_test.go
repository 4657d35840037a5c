package monitor

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestLockFreeQueryDuringIngest is the soundness battery for the lock-free
// read plane, meant to run under -race: one goroutine ingests the second
// half of a corpus trace batch by batch while several query goroutines
// hammer the monitor without pause. Every answered query must agree with
// the Fidge/Mattern oracle, queries against not-yet-published events must
// fail with exactly ErrUnknownEvent, and ingest must run to completion
// while the query load never lets up — queries no longer block DeliverBatch
// and vice versa.
func TestLockFreeQueryDuringIngest(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		clock[st.Event.ID] = st.Clock
	}

	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	if err := m.DeliverBatch(tr.Events[:half]); err != nil {
		t.Fatal(err)
	}

	const queriers = 4
	var (
		answered atomic.Int64
		unknown  atomic.Int64
		done     = make(chan struct{})
		wg       sync.WaitGroup
		failMu   sync.Mutex
		failure  string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
	}
	failed := func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		return failure != ""
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(0xF00D + int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				// Mix settled events (always answerable) with events from
				// the half being ingested (answerable only once published).
				e := tr.Events[r.Intn(len(tr.Events))].ID
				f := tr.Events[r.Intn(half)].ID
				got, err := m.Precedes(e, f)
				if err != nil {
					if !errors.Is(err, hct.ErrUnknownEvent) {
						fail("Precedes(" + e.String() + "," + f.String() + "): " + err.Error())
						return
					}
					unknown.Add(1)
					continue
				}
				if want := fm.Precedes(e, clock[e], f, clock[f]); got != want {
					fail("Precedes(" + e.String() + "," + f.String() + ") raced to a wrong answer")
					return
				}
				answered.Add(1)
			}
		}(g)
	}

	// Sustained ingest of the second half, in small batches so the writer
	// publishes continuously while the queriers run. Between batches the
	// writer waits for the query plane to advance, guaranteeing genuine
	// interleaving of deliveries and queries rather than one racing past
	// the other.
	prev := answered.Load()
	for lo := half; lo < len(tr.Events); lo += 512 {
		hi := lo + 512
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := m.DeliverBatch(tr.Events[lo:hi]); err != nil {
			t.Fatalf("DeliverBatch[%d:%d] under query load: %v", lo, hi, err)
		}
		for answered.Load() == prev && !failed() {
			runtime.Gosched()
		}
		prev = answered.Load()
	}
	close(done)
	wg.Wait()

	if failure != "" {
		t.Fatal(failure)
	}
	if answered.Load() == 0 {
		t.Fatal("no queries answered during ingest")
	}
	if st := m.Stats(300); st.Events != len(tr.Events) {
		t.Fatalf("ingest did not complete under query load: %d of %d events", st.Events, len(tr.Events))
	}
	t.Logf("answered %d queries (%d unknown-yet) concurrently with ingest of %d events",
		answered.Load(), unknown.Load(), len(tr.Events)-half)
}

// TestShardedIngestQueryMetricsStress is the -race battery for the sharded
// ingest pipeline: a monitor at 8 stamping lanes fed through a pipelined
// collector by two submitters racing interleaved chunks (so the collector's
// buffering and the cross-shard rendezvous are both exercised), while query
// goroutines hammer QueryBatch and a scraper renders the full /metrics
// surface — including the per-shard gauges — without pause. Every answered
// query must agree with the Fidge/Mattern oracle; unanswerable ones must
// fail with exactly ErrUnknownEvent.
func TestShardedIngestQueryMetricsStress(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		clock[st.Event.ID] = st.Clock
	}

	m, err := NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}, hct.PipelineOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	reg := obs.NewRegistry()
	tel := obs.NewTelemetry(reg)
	m.Pipeline().SetWaitObserver(tel.CrossShardWait)
	c := NewCollector(m)
	c.pipelined = true
	c.deliverHist = tel.DeliverBatch
	c.runHist = tel.RunEvents
	reg.GaugeFunc("stress_ingest_shards", "shards under stress",
		func() float64 { return float64(m.IngestShards()) })
	var shardBuf []uint64
	reg.GaugeFunc("stress_shard_events_max", "busiest shard tally",
		func() float64 {
			shardBuf = m.Pipeline().ShardEventsInto(shardBuf[:0])
			var max uint64
			for _, n := range shardBuf {
				if n > max {
					max = n
				}
			}
			return float64(max)
		})

	// The store's physical tallies and the lane depths are written by the
	// lanes (per drained chunk, under the progress mutex) while this reads.
	reg.GaugeFunc("stress_store_vector_bytes", "bytes carved for vectors",
		func() float64 { return float64(m.Pipeline().StoreStats().VectorBytes) })
	var depthBuf []uint64
	reg.GaugeFunc("stress_lane_depth_max", "deepest lane queue",
		func() float64 {
			depthBuf = m.Pipeline().LaneQueueDepthsInto(depthBuf[:0])
			return float64(slices.Max(depthBuf))
		})

	const chunk = 512
	var (
		done    = make(chan struct{})
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
	}

	// Two submitters race interleaved chunks into the collector: even chunks
	// and odd chunks arrive from different goroutines, so roughly half the
	// stream is buffered out of order before its predecessor chunk lands.
	var subWG sync.WaitGroup
	for par := 0; par < 2; par++ {
		subWG.Add(1)
		go func(par int) {
			defer subWG.Done()
			for ci := par; ci*chunk < len(tr.Events); ci += 2 {
				lo := ci * chunk
				hi := lo + chunk
				if hi > len(tr.Events) {
					hi = len(tr.Events)
				}
				if _, err := c.SubmitBatch(tr.Events[lo:hi]); err != nil {
					fail("SubmitBatch: " + err.Error())
					return
				}
			}
		}(par)
	}

	// Query goroutines: batches big enough to fan out internally, answers
	// checked against the oracle.
	var answered atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(0x5EED + int64(g)))
			qs := make([]Query, 2*queryBatchParallelMin)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := range qs {
					qs[i] = Query{
						Op: OpPrecedes,
						A:  tr.Events[r.Intn(len(tr.Events))].ID,
						B:  tr.Events[r.Intn(len(tr.Events))].ID,
					}
				}
				res := m.QueryBatch(qs)
				for i, qr := range res {
					if qr.Err != nil {
						if !errors.Is(qr.Err, hct.ErrUnknownEvent) {
							fail("QueryBatch: " + qr.Err.Error())
							return
						}
						continue
					}
					q := qs[i]
					if want := fm.Precedes(q.A, clock[q.A], q.B, clock[q.B]); qr.True != want {
						fail("Precedes(" + q.A.String() + "," + q.B.String() + ") raced to a wrong answer")
						return
					}
					answered.Add(1)
				}
			}
		}(g)
	}

	// The scraper renders every registered instrument — counters, the
	// per-shard gauges, the cross-shard-wait histogram — while both planes
	// run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				fail("WritePrometheus: " + err.Error())
				return
			}
		}
	}()

	subWG.Wait()
	m.IngestBarrier()
	close(done)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	if answered.Load() == 0 {
		t.Fatal("no queries answered during sharded ingest")
	}
	st := m.Stats(300)
	if st.Events != len(tr.Events) {
		t.Fatalf("sharded ingest incomplete: %d of %d events", st.Events, len(tr.Events))
	}
	// After the barrier the tallies are exact and the lanes idle.
	if ss := m.Pipeline().StoreStats(); ss.Keyframes+ss.DeltaFrames+ss.NibbleFrames != int64(st.ClusterReceives) ||
		ss.ProjKeyframes+ss.ProjFrames+ss.ProjNibbleFrames+ss.ProjShared != int64(st.Events-st.ClusterReceives) {
		t.Fatalf("store tallies %+v for %d noted cluster receives of %d events", ss, st.ClusterReceives, st.Events)
	}
	if depths := m.Pipeline().LaneQueueDepthsInto(nil); len(depths) != 8 || slices.Max(depths) != 0 {
		t.Fatalf("lane queue depths %v after the barrier, want eight zeros", depths)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}
	t.Logf("answered %d queries concurrently with 8-shard ingest of %d events (%d cross-shard waits)",
		answered.Load(), len(tr.Events), m.Pipeline().CrossShardWaits())
}

// TestQueryBatchSingleWatermark pins the batch-consistency fix: a QueryBatch
// large enough to shard across goroutines must answer every query against
// the one watermark captured at entry. The batch carries each query twice,
// half a batch apart so the duplicates land in different shards; under the
// old per-shard RLock scheme a concurrent delivery between shard
// acquisitions could give the twins different answers.
func TestQueryBatchSingleWatermark(t *testing.T) {
	spec, ok := workload.Find("pvm/treereduce-127")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	quarter := len(tr.Events) / 4
	if err := m.DeliverBatch(tr.Events[:quarter]); err != nil {
		t.Fatal(err)
	}

	ingestDone := make(chan error, 1)
	go func() {
		for lo := quarter; lo < len(tr.Events); lo += 64 {
			hi := lo + 64
			if hi > len(tr.Events) {
				hi = len(tr.Events)
			}
			if err := m.DeliverBatch(tr.Events[lo:hi]); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- nil
	}()

	r := rand.New(rand.NewSource(99))
	const pairs = 2 * queryBatchParallelMin // twice the sharding threshold
	for round := 0; round < 50; round++ {
		qs := make([]Query, 2*pairs)
		for i := 0; i < pairs; i++ {
			q := Query{
				Op: OpPrecedes,
				A:  tr.Events[r.Intn(len(tr.Events))].ID,
				B:  tr.Events[r.Intn(len(tr.Events))].ID,
			}
			if i%3 == 0 {
				q.Op = OpConcurrent
			}
			qs[i] = q
			qs[i+pairs] = q // twin lands len/2 away, in another shard
		}
		res := m.QueryBatch(qs)
		for i := 0; i < pairs; i++ {
			a, b := res[i], res[i+pairs]
			if a.True != b.True || (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("round %d: duplicate query %+v answered (%v,%v) and (%v,%v): batch straddled store states",
					round, qs[i], a.True, a.Err, b.True, b.Err)
			}
		}
	}
	if err := <-ingestDone; err != nil {
		t.Fatalf("concurrent ingest: %v", err)
	}
}

// TestClusterSizesIntoAllocFree pins the scrape-path guarantee: once warm,
// refreshing the cluster-size distribution allocates nothing.
func TestClusterSizesIntoAllocFree(t *testing.T) {
	spec, ok := workload.Find("pvm/treereduce-43")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	want := m.clusterSizes()
	out := make(map[int]int)
	m.clusterSizesInto(out) // warm the internal buffer and the map
	if allocs := testing.AllocsPerRun(100, func() { m.clusterSizesInto(out) }); allocs != 0 {
		t.Fatalf("ClusterSizesInto allocates %v per scrape, want 0", allocs)
	}
	if len(out) != len(want) {
		t.Fatalf("ClusterSizesInto = %v, ClusterSizes = %v", out, want)
	}
	for size, n := range want {
		if out[size] != n {
			t.Fatalf("ClusterSizesInto = %v, ClusterSizes = %v", out, want)
		}
	}
}
