package hct

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestPagedStoreReadersAcrossPageBoundaries is the -race battery for the
// paged columns: a sharded, pipelined-planner pipeline ingests a ring whose
// every column crosses several page boundaries (odd batch sizes, so pages are
// added mid-batch) while readers, each under a freshly captured watermark,
// materialise the cells on both sides of every boundary below the cut and the
// newest cell of a column, compare their vectors with the Fidge/Mattern
// oracle, require the slot above the cut to miss, and answer precedence
// queries (direct and routed through the paged note columns) against the
// oracle.
func TestPagedStoreReadersAcrossPageBoundaries(t *testing.T) {
	tr := workload.Ring(24, 140, false) // ≥560 events per process: three or more pages each
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		clock[st.Event.ID] = st.Clock
	}
	pipe, err := NewPipeline(tr.NumProcs, Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()},
		PipelineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	var (
		checked atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	// checkCell holds one materialised view to the oracle.
	checkCell := func(id model.EventID, w Watermark) bool {
		ts, ok := pipe.TimestampAt(id, w)
		if !ok {
			t.Errorf("TimestampAt(%v) misses below its watermark %d", id, w[id.Process])
			return false
		}
		want := clock[id]
		if ts.ID != id || (ts.Full == nil) == (ts.Cluster == nil) {
			t.Errorf("TimestampAt(%v) = %v: malformed view", id, ts)
			return false
		}
		if ts.Full != nil {
			if !ts.Full.Equal(want) {
				t.Errorf("%v Full = %v, Fidge/Mattern %v", id, ts.Full, want)
				return false
			}
		} else if proj := want.Project(ts.Cluster.Members); !vclock.Clock(ts.Proj).Equal(vclock.Clock(proj)) {
			t.Errorf("%v Proj = %v over %v, Fidge/Mattern projects to %v", id, ts.Proj, ts.Cluster, proj)
			return false
		}
		return true
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(0xCE11 + int64(g)))
			var w Watermark
			for !stop.Load() && !t.Failed() {
				w = pipe.CaptureWatermark(w)
				p := model.ProcessID(r.Intn(tr.NumProcs))
				top := model.EventIndex(w[p])
				if top == 0 {
					runtime.Gosched()
					continue
				}
				if _, ok := pipe.TimestampAt(model.EventID{Process: p, Index: top + 1}, w); ok {
					t.Errorf("TimestampAt(p%d:%d) answers above its watermark %d", p, top+1, top)
					return
				}
				if !checkCell(model.EventID{Process: p, Index: top}, w) {
					return
				}
				for b := model.EventIndex(pageCells); b <= top; b += pageCells {
					// Last slot of one page, first slot of the next.
					if !checkCell(model.EventID{Process: p, Index: b}, w) {
						return
					}
					if b+1 <= top && !checkCell(model.EventID{Process: p, Index: b + 1}, w) {
						return
					}
				}
				q := model.ProcessID(r.Intn(tr.NumProcs))
				if w[q] == 0 {
					continue
				}
				e := model.EventID{Process: p, Index: 1 + model.EventIndex(r.Intn(int(top)))}
				f := model.EventID{Process: q, Index: 1 + model.EventIndex(r.Intn(int(w[q])))}
				got, err := pipe.PrecedesAt(e, f, w)
				if err != nil {
					t.Errorf("PrecedesAt(%v,%v) below the watermark: %v", e, f, err)
					return
				}
				if want := fm.Precedes(e, clock[e], f, clock[f]); got != want {
					t.Errorf("PrecedesAt(%v,%v) = %v, Fidge/Mattern %v", e, f, got, want)
					return
				}
				checked.Add(1)
			}
		}(g)
	}

	// Between batches the writer waits for the readers to advance, so reads
	// and page additions genuinely interleave.
	prev := checked.Load()
	for lo := 0; lo < len(tr.Events) && !t.Failed(); lo += 97 {
		hi := lo + 97
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := pipe.DispatchAsync(tr.Events[lo:hi], nil); err != nil {
			t.Fatalf("DispatchAsync[%d:%d]: %v", lo, hi, err)
		}
		for checked.Load() == prev && !t.Failed() {
			runtime.Gosched()
		}
		prev = checked.Load()
	}
	pipe.Barrier()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	notePages := 0
	for p := range pipe.cols {
		if n := len(*pipe.cols[p].dir.Load()); n < 3 {
			t.Fatalf("column %d holds %d pages: the trace no longer crosses two page boundaries", p, n)
		}
		if d := pipe.crs[p].dir.Load(); d != nil && len(*d) > notePages {
			notePages = len(*d)
		}
	}
	if notePages < 2 {
		t.Fatalf("no note column crossed a page boundary (max %d pages)", notePages)
	}
	t.Logf("%d reader rounds against %d events; widest note column %d pages", checked.Load(), len(tr.Events), notePages)
}

// stallTracer is a BatchTracer whose Begin blocks on lane 0 until released:
// a deterministic way to stall exactly one lane from outside it.
type stallTracer struct {
	entered chan struct{} // closed when lane 0 has stalled
	release chan struct{} // close to let it go
	once    sync.Once
}

func (s *stallTracer) Begin(_ string, lane, _ int) int {
	if lane == 0 {
		s.once.Do(func() { close(s.entered) })
		<-s.release
	}
	return 0
}
func (s *stallTracer) End(int) {}
func (s *stallTracer) Span(string, int, int, time.Time, time.Duration) int {
	return 0
}

// TestLaneQueueBounded covers the lane-queue bound: with one lane stalled the
// planner must stop flushing once that lane's backlog reaches maxLaneBacklog
// (whole batches only, so at most maxLaneBacklog plus one batch is ever
// queued), every batch must still be stamped after the lane resumes — the
// other lane meanwhile blocks on cross-lane sends the stalled lane holds, the
// shape the deadlock argument is about — and the queues must not keep more
// capacity than the bound allows.
func TestLaneQueueBounded(t *testing.T) {
	const (
		procs      = 8 // block map: 0-3 on lane 0, 4-7 on lane 1
		perLane    = 512
		batches    = 3 * maxLaneBacklog / perLane
		fitBatches = maxLaneBacklog / perLane // flushed before the planner must wait
	)
	b := model.NewBuilder("", procs)
	for i := 0; i < batches; i++ {
		for k := 0; k < 4; k++ {
			b.Message(4, 0) // lane 1 -> stalled lane 0
			b.Message(1, 5) // stalled lane 0 -> lane 1: lane 1 blocks on it
		}
		for k := 0; k < (perLane-8)/4; k++ {
			for p := 0; p < procs; p++ {
				b.Unary(model.ProcessID(p))
			}
		}
	}
	tr := b.Trace()
	if len(tr.Events) != batches*2*perLane {
		t.Fatalf("trace has %d events, want %d", len(tr.Events), batches*2*perLane)
	}

	pipe, err := NewPipeline(procs, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
		PipelineOptions{Shards: 2, PlanQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	st := &stallTracer{entered: make(chan struct{}), release: make(chan struct{})}
	var dispatched atomic.Int64
	dispErr := make(chan error, 1)
	go func() {
		for i := 0; i < batches; i++ {
			var bt BatchTracer
			if i == 0 {
				bt = st // lane 0 stalls on the very first item
			}
			if err := pipe.DispatchTraced(tr.Events[i*2*perLane:(i+1)*2*perLane], bt); err != nil {
				dispErr <- err
				return
			}
			dispatched.Add(1)
		}
		dispErr <- nil
	}()

	<-st.entered
	for dispatched.Load() < fitBatches {
		runtime.Gosched()
	}
	// The next Dispatch must now be waiting for room. A sleep cannot prove a
	// negative, but it cannot fail a correct planner either; the capacity
	// check at the end catches what it misses.
	time.Sleep(20 * time.Millisecond)
	if got := dispatched.Load(); got != fitBatches {
		t.Errorf("%d batches dispatched past a stalled lane, want the planner waiting after %d", got, fitBatches)
	}
	ln := pipe.lanes[0]
	ln.mu.Lock()
	queued := len(ln.queue)
	ln.mu.Unlock()
	if queued > maxLaneBacklog {
		t.Errorf("stalled lane queues %d items, bound %d", queued, maxLaneBacklog)
	}

	close(st.release)
	if err := <-dispErr; err != nil {
		t.Fatal(err)
	}
	pipe.Barrier()
	for _, e := range tr.Events {
		if _, ok := pipe.Event(e.ID); !ok {
			t.Fatalf("%v not stamped after the stalled lane resumed", e.ID)
		}
	}
	// append at most doubles, and a queue never holds more than the backlog
	// bound plus the batch that was let in.
	const capBound = 2 * (maxLaneBacklog + perLane)
	for _, ln := range pipe.lanes { // idle after Barrier: spare is safe to read
		ln.mu.Lock()
		if c := max(cap(ln.queue), cap(ln.spare)); c > capBound {
			t.Errorf("lane %d queue kept capacity %d, bound %d", ln.id, c, capBound)
		}
		ln.mu.Unlock()
	}
}

// TestStoreBytesPerEvent asserts the store's steady-state cost (ROADMAP
// 1(e)): on the benchmark's SPMD ring at maxCS 13 the live heap a one-lane
// engine gains per ingested event stays under a stated budget, and stamping
// allocates per page and per arena chunk, never per event. Trace and engine
// are built before the measured region.
//
// The budget: a 32-byte cell and a 13-element projection (84 B) for every
// event, a 1200-byte full vector and a 16-byte note for the ≈4% that are
// noted cluster receives (≈49 B/event), partial pages and the last arena
// chunk — ≈138 B/event measured, 209 before cells and pages. 160 leaves
// headroom for allocator rounding without hiding a returned 80-byte cell.
func TestStoreBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 607k events")
	}
	const (
		budgetBytesPerEvent  = 160
		budgetAllocsPerEvent = 0.02 // pages, chunks, directories: ≈1 per 100 events
	)
	tr := workload.Ring(300, 330, false)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for lo := 0; lo < len(tr.Events); lo += 1024 { // the daemon's frame size
		if err := ts.Dispatch(tr.Events[lo:min(lo+1024, len(tr.Events))]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	n := float64(len(tr.Events))
	bytesPer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	allocsPer := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d events: %.1f heap B/event, %.4f allocs/event, size ratio %.3f",
		len(tr.Events), bytesPer, allocsPer, float64(ts.StorageInts(300))/(n*300))
	if bytesPer > budgetBytesPerEvent {
		t.Errorf("store holds %.1f heap B/event, budget %d", bytesPer, budgetBytesPerEvent)
	}
	if allocsPer > budgetAllocsPerEvent {
		t.Errorf("ingest allocates %.4f times per event, budget %.2f: something allocates per event again", allocsPer, budgetAllocsPerEvent)
	}
	runtime.KeepAlive(ts)
	runtime.KeepAlive(tr)
}

// TestViewsAllocateNothing pins the by-value read API: materialising a
// timestamp view, reconstructing an event and answering a routed precedence
// query read the cells in place and allocate nothing.
func TestViewsAllocateNothing(t *testing.T) {
	tr := workload.Ring(16, 8, false)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	// Find a pair whose test routes through the cluster-receive notes.
	var e, f model.EventID
	for i := len(tr.Events) - 1; i >= 0 && f == (model.EventID{}); i-- {
		_, before := ts.QueryPathCounts()
		if _, err := ts.Precedes(tr.Events[0].ID, tr.Events[i].ID); err != nil {
			t.Fatal(err)
		}
		if _, after := ts.QueryPathCounts(); after > before {
			e, f = tr.Events[0].ID, tr.Events[i].ID
		}
	}
	if f == (model.EventID{}) {
		t.Fatal("no routed precedence pair in the trace")
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range tr.Events {
			v, _ := ts.Timestamp(ev.ID)
			got, _ := ts.Event(ev.ID)
			sink += len(v.Proj) + len(v.Full) + int(got.Kind)
		}
		if _, err := ts.Precedes(e, f); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reading %d views and events and one routed query allocates %.0f times, want 0", len(tr.Events), allocs)
	}
	_ = sink
}
