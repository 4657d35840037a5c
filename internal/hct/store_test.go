package hct

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
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
// oracle. Every process's clock outgrows a byte of offset more than once
// during the run, so the newest note a reader decodes is, again and again, one
// its writer has just started a new keyframe for. Every round also takes the
// live Timestamp of each process's newest cell — resolved through whatever
// epoch table and chunk lists are published at that instant, while merges
// append epochs and the lanes move on to fresh chunks — and holds it to its
// shape: a projection as long as its cluster, counting its own event.
func TestPagedStoreReadersAcrossPageBoundaries(t *testing.T) {
	tr := workload.Ring(24, 140, false) // ≥560 events per process: three or more pages, two or more keyframes each
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
		ts, ok := pipe.At(w).Timestamp(id)
		if !ok {
			t.Errorf("At(w).Timestamp(%v) misses below its watermark %d", id, w[id.Process])
			return false
		}
		want := clock[id]
		if ts.ID != id || (ts.Full == nil) == (ts.Cluster == nil) {
			t.Errorf("At(w).Timestamp(%v) = %v: malformed view", id, ts)
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
				if _, ok := pipe.At(w).Timestamp(model.EventID{Process: p, Index: top + 1}); ok {
					t.Errorf("At(w).Timestamp(p%d:%d) answers above its watermark %d", p, top+1, top)
					return
				}
				if !checkCell(model.EventID{Process: p, Index: top}, w) {
					return
				}
				for q := range pipe.cols {
					newest := model.EventID{Process: model.ProcessID(q), Index: model.EventIndex(pipe.cols[q].wm.Load())}
					if newest.Index == 0 {
						continue
					}
					ts, ok := pipe.Timestamp(newest)
					if !ok {
						t.Errorf("Timestamp(%v) misses at the live watermark", newest)
						return
					}
					if own, _ := ts.component(newest.Process); own != int32(newest.Index) ||
						(ts.Full == nil && len(ts.Proj) != len(ts.Cluster.Members)) {
						t.Errorf("Timestamp(%v) = %v: own component %d, %d elements over %v", newest, ts, own, len(ts.Proj), ts.Cluster)
						return
					}
				}
				// The newest note below the cut, keyframe, delta or nibble frame:
				// both readers of the stored form against the oracle.
				if g := pipe.latestCRAtOrBelow(int32(p), int32(top)); g != nil {
					want := clock[model.EventID{Process: p, Index: model.EventIndex(g.index)}]
					q := model.ProcessID(r.Intn(tr.NumProcs))
					vecs := pipe.vectors(p)
					if full := vecs.full(g, tr.NumProcs, nil); !vclock.Clock(full).Equal(want) || vecs.component(g, q, tr.NumProcs) != want[q] {
						t.Errorf("note p%d:%d decodes to %v (component %d = %d), Fidge/Mattern %v", p, g.index, full, q, vecs.component(g, q, tr.NumProcs), want)
						return
					}
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
				got, err := pipe.At(w).Precedes(e, f)
				if err != nil {
					t.Errorf("At(w).Precedes(%v,%v) below the watermark: %v", e, f, err)
					return
				}
				if want := fm.Precedes(e, clock[e], f, clock[f]); got != want {
					t.Errorf("At(w).Precedes(%v,%v) = %v, Fidge/Mattern %v", e, f, got, want)
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
	rolled := 0 // processes whose notes span two or more keyframes
	for p := range pipe.crs {
		keys, prev := 0, noDelta // no keyframe lies at noDelta
		for i, n := int32(0), pipe.crs[p].wm.Load(); i < n; i++ {
			if k := pipe.crs[p].at(i).key; k != prev {
				keys, prev = keys+1, k
			}
		}
		if keys >= 2 {
			rolled++
		}
	}
	if rolled == 0 {
		t.Fatal("no process rolled over to a second keyframe: the trace no longer outgrows a byte of offset")
	}
	st := pipe.StoreStats()
	for _, ln := range pipe.lanes {
		if n := len(*ln.ar.dir.Load()); n < 3 {
			t.Fatalf("lane %d lists %d chunks: the readers no longer race a growing chunk list", ln.id, n)
		}
	}
	if merges := int64(pipe.Merges()); merges == 0 || st.Epochs <= merges {
		t.Fatalf("%d epochs after %d merges: the readers no longer race a growing epoch table", st.Epochs, merges)
	}
	t.Logf("%d reader rounds against %d events; widest note column %d pages; %d keyframes, %d delta and %d nibble frames, %d processes rolled over; %d epochs",
		checked.Load(), len(tr.Events), notePages, st.Keyframes, st.DeltaFrames, st.NibbleFrames, rolled, st.Epochs)
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
// queued) and the dispatcher once the plan queue behind it is full (PlanQueue
// batches, the one the planner holds included), every batch must still be
// stamped after the lane resumes — the other lane meanwhile blocks on
// cross-lane sends the stalled lane holds, the shape the deadlock argument is
// about — and the queues must not keep more capacity than the bound allows.
func TestLaneQueueBounded(t *testing.T) {
	const (
		procs      = 8 // block map: 0-3 on lane 0, 4-7 on lane 1
		perLane    = 512
		batches    = 3 * maxLaneBacklog / perLane
		planQueue  = 1
		fitBatches = maxLaneBacklog/perLane + planQueue // flushed before the planner must wait, and queued behind it
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
		PipelineOptions{Shards: 2, PlanQueue: planQueue})
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
			if err := pipe.DispatchAsync(tr.Events[i*2*perLane:(i+1)*2*perLane], bt); err != nil {
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
	// The planner must now be waiting for room in the lane with the plan
	// queue full behind it, and the next dispatch for room in the queue. A
	// sleep cannot prove a negative, but it cannot fail a correct planner
	// either; the capacity check at the end catches what it misses.
	time.Sleep(20 * time.Millisecond)
	if got := dispatched.Load(); got != fitBatches {
		t.Errorf("%d batches dispatched past a stalled lane, want the dispatcher waiting after %d", got, fitBatches)
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
		if !pipe.Live().Has(e.ID) {
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
// 1(e)) on four of the benchmark's computations at maxCS 13: the live heap a
// one-lane engine gains per ingested event stays under a stated budget, and
// stamping allocates per page and per arena chunk, never per event. Trace and
// engine are built before the measured region.
//
// The ring (spmd-stream): a 4-byte cell for every event; of the 96% that
// carry a projection, over a cluster of up to 13, half are sends whose cell
// names the frame of the receive before them, and the other half carve a
// frame: 243209 of 283469 a 12-byte nibble frame over the process's anchor
// (the anchor's offset and two elements of packed nibbles), 40260 a 20-byte
// byte frame over the keyframe (its offset and four elements of packed
// bytes), which becomes the anchor, with a 76-byte keyframe — its epoch
// element, 13 raw elements and its own frame — once per ≈80 of them, where a
// neighbour's component outgrows its byte or a merge changes the members
// (≈6.6 B/event; 9.8 with byte frames alone, 19.5 when every projection
// carved its frame, 50 when every one kept its 13 ints); for the ≈4% that are
// noted cluster receives a 12-byte note and, for 20460 of 24420, a nibble
// frame over the process's anchor — a header and ⌈300/8⌉ elements of
// nibbles, or a bitmap and the moved nibbles where that is smaller — with a
// 300-byte delta frame, the next anchor, for 3696, a 16-bit key of at most
// 604 bytes over the process's raw keyframe for 240 and a 1200-byte raw
// keyframe for 24 of
// them (≈5.5 B/event, 6 with raw keyframes alone, 12.2 with delta frames
// alone, 49 when every one kept its full vector); partial pages and the last
// arena chunk — ≈18.1 B/event measured. The budget of 20 is below the 21.5
// the store measured
// with projections as byte frames alone, so dropping either nibble form fails
// it, as do the epoch in the cell, the partner (a 16-byte cell), a frame per
// projection, a pointer in the cell or a returned full vector per cluster
// receive.
//
// RandomUniform(280) (scattered-stream): no locality, so 47.8% of events are
// noted cluster receives and their frames are most of the store — 4 B for
// every event, ≈5 of projection frames (half of the other half share one),
// 5.7 of notes, and ≈93.5 of cluster-receive frames: 280 raw keyframes, 1369
// 16-bit keys, 80772 delta frames and 60867 nibble frames, most of them
// sparse, over the latest delta frame, where 91% of frames over a key move
// every component. ≈111.8 B/event measured (114.4 with raw keyframes alone,
// 115.2 with projections as byte frames alone)
// against 155.4 with delta frames alone, 160.1 with the epoch in the cell
// too, 169.6 with the partner too, 171.3 with dense frames only too, 177 with
// a frame per projection, 192 with raw projections, 225 with pointers too and
// 619 with full vectors; budget 118, which delta frames alone and the 8-byte
// cell fail. Its columns hold a third of the ring's events each, so pages and
// directories come to 0.025 allocations per event, not 0.013.
//
// RPCBusiness(240, 24, 24) (rpc-fanin, 288 processes): a cluster receive's
// frame moves a median 2% of its components, so every frame is sparse — a
// 36-byte bitmap and the few moved offsets where the dense frame was 288
// bytes — and 7960 of the 13360 are nibble frames, which save little over a
// sparse delta frame of a few moved bytes. A client's server outgrows a byte
// above the key every few receives, which with raw keyframes alone made 2921
// of them 1152-byte keyframes (≈13.9 B/event); over a raw keyframe nearly all
// of those fit 16 bits, so 2661 are 16-bit keys of at most 580 bytes, and
// 260 raw keyframes are left, about one per process. Of the 164245
// projection frames, 142338 are nibble frames. ≈31.5 B/event measured, 38.0
// with raw keyframes alone, 41.1 with projections as byte frames alone too,
// 45.9 with the epoch in the cell too, 55.4 with the partner too and 66.2
// with dense frames too; budget 33, which raw keyframes alone fail.
//
// WebTier(240, 26, 26, 8) (web-readheavy, 292 processes): of its 25890 noted
// cluster receives 18149 are delta frames and 5522 nibble frames, 14403 of
// them sparse; 2105 are 16-bit keys and 114 raw keyframes, where raw
// keyframes alone were 2219. ≈38.4 B/event measured, 43.4 with raw keyframes
// alone; budget 40, which raw keyframes alone fail.
func TestStoreBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 900k events")
	}
	for _, tc := range []struct {
		name   string
		tr     *model.Trace
		budget float64 // heap bytes per event
		allocs float64 // per event: pages, chunks, directories
	}{
		{"ring", workload.Ring(300, 330, false), 20, 0.02},
		{"random-uniform", workload.RandomUniform(280, 150000, 1), 118, 0.04},
		{"rpc", workload.RPCBusiness(240, 24, 24, 22000, 0.05, 1), 33, 0.04},
		{"web", workload.WebTier(240, 26, 26, 8, 20000, 1), 40, 0.04},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for lo := 0; lo < len(tr.Events); lo += 1024 { // the daemon's frame size
				if err := ts.DispatchAsync(tr.Events[lo:min(lo+1024, len(tr.Events))], nil); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)

			n := float64(len(tr.Events))
			bytesPer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			allocsPer := float64(after.Mallocs-before.Mallocs) / n
			st := ts.StoreStats()
			raw := st.Keyframes - st.WideKeys
			t.Logf("%d events: %.1f heap B/event (%.1f in cells, %.1f in notes, %.1f carved for vectors: %d + %d + %d projection keyframes, byte and nibble frames under %d cells that share one, %d + %d + %d + %d cluster-receive raw keyframes, 16-bit keys, delta and nibble frames, %d of the frames sparse; %d epochs), %.4f allocs/event, size ratio %.3f",
				len(tr.Events), bytesPer, float64(st.CellBytes)/n, float64(st.NoteBytes)/n, float64(st.VectorBytes)/n, st.ProjKeyframes, st.ProjFrames, st.ProjNibbleFrames, st.ProjShared, raw, st.WideKeys, st.DeltaFrames, st.NibbleFrames, st.SparseFrames, st.Epochs, allocsPer,
				float64(ts.StorageInts(300))/(n*300))
			if st.CellBytes != 4*int64(len(tr.Events)) || st.NoteBytes != 12*int64(ts.ClusterReceives()) {
				t.Errorf("%d cell bytes and %d note bytes for %d events and %d noted cluster receives", st.CellBytes, st.NoteBytes, len(tr.Events), ts.ClusterReceives())
			}
			if bytesPer > tc.budget {
				t.Errorf("store holds %.1f heap B/event, budget %.0f", bytesPer, tc.budget)
			}
			if allocsPer > tc.allocs {
				t.Errorf("ingest allocates %.4f times per event, budget %.2f: something allocates per event again", allocsPer, tc.allocs)
			}
			if got, want := raw+st.WideKeys+st.DeltaFrames+st.NibbleFrames, int64(ts.ClusterReceives()); raw < 0 || got != want {
				t.Errorf("%d raw keyframes + 16-bit keys + delta frames + nibble frames for %d noted cluster receives", got, want)
			}
			if got, want := st.ProjKeyframes+st.ProjFrames+st.ProjNibbleFrames+st.ProjShared, int64(len(tr.Events)-ts.ClusterReceives()); got != want {
				t.Errorf("%d projection keyframes + byte frames + nibble frames + shared cells for the %d events that are not noted cluster receives", got, want)
			}
			runtime.KeepAlive(ts)
			runtime.KeepAlive(tr)
		})
	}
}

// TestViewsAllocateNothing pins the by-value read API against the stored
// form: the views of cluster receives stored as keyframes allocate nothing,
// aliasing the store; a precedence
// query allocates nothing whatever it reads — a projection frame on the direct
// path, one resolved once and indexed per member on the routed path, either
// of them a nibble frame read through its anchor, a
// cluster receive stored as a delta or a nibble frame, dense or sparse, read
// directly or reached through the notes; the view of a projection or of a
// framed cluster receive, any form, allocates exactly its decoded vector; and
// a hct.View asks the same with no allocation of its own, live or at a cut,
// capturing a cut view being the identity.
func TestViewsAllocateNothing(t *testing.T) {
	tr := workload.RandomSparse(40, 3, 1000, 1)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	var projs, keyframes []model.EventID
	frames := map[crForm][]model.EventID{}
	forms := []crForm{{}, {sparse: true}, {nibble: true}, {nibble: true, sparse: true}}
	for _, ev := range tr.Events {
		c := ts.Live().cell(ev.ID)
		if !c.noted() {
			projs = append(projs, ev.ID)
			continue
		}
		if form := formOf(ts.crs[ev.ID.Process].at(int32(c.vec()))); form.key {
			keyframes = append(keyframes, ev.ID)
		} else {
			frames[form] = append(frames[form], ev.ID)
		}
	}
	if len(projs) == 0 || len(keyframes) == 0 || len(frames) != len(forms) {
		t.Fatalf("trace stores %d projections, %d keyframes and frames %v: need all six forms", len(projs), len(keyframes), frames)
	}
	// A target whose test routes through the notes, with the forms of the
	// frames it finds there.
	e := tr.Events[0].ID
	routed := map[crForm]model.EventID{}
	for i := len(tr.Events) - 1; i >= 0 && len(routed) < len(forms); i-- {
		_, before := ts.QueryPathCounts()
		f := tr.Events[i].ID
		if _, err := ts.Precedes(e, f); err != nil {
			t.Fatal(err)
		}
		tf, _ := ts.Timestamp(f)
		if _, after := ts.QueryPathCounts(); after == before || tf.Cluster == nil {
			continue
		}
		for k, q := range tf.Cluster.Members {
			if g := ts.latestCRAtOrBelow(q, tf.Proj[k]); g != nil && g.delta != noDelta && routed[formOf(g)] == (model.EventID{}) {
				routed[formOf(g)] = f
			}
		}
	}
	if len(routed) < len(forms) {
		t.Fatalf("precedence pairs in the trace route through frames of forms %v only: need all four", routed)
	}
	// Nibble-framed projections as targets, one answered from its own members
	// and one routed through the notes, from sources on other processes.
	var nibbleProjs []model.EventID
	var nibbleDirect, nibbleRouted [2]model.EventID
	for _, f := range projs {
		if uint32(ts.vectors(f.Process).at(ts.Live().cell(f).vec()))&projNibbleBit == 0 {
			continue
		}
		nibbleProjs = append(nibbleProjs, f)
		for _, ev := range tr.Events[:200] {
			if ev.ID.Process == f.Process {
				continue
			}
			direct, routed := ts.QueryPathCounts()
			if _, err := ts.Precedes(ev.ID, f); err != nil {
				t.Fatal(err)
			}
			if d, _ := ts.QueryPathCounts(); d > direct {
				nibbleDirect = [2]model.EventID{ev.ID, f}
			} else if _, r := ts.QueryPathCounts(); r > routed {
				nibbleRouted = [2]model.EventID{ev.ID, f}
			}
		}
	}
	if nibbleDirect[1] == (model.EventID{}) || nibbleRouted[1] == (model.EventID{}) {
		t.Fatalf("%d nibble-framed projections, queries into them direct %v and routed %v: need both", len(nibbleProjs), nibbleDirect, nibbleRouted)
	}
	pair := func(p [2]model.EventID) func() {
		return func() {
			if _, err := ts.Live().Precedes(p[0], p[1]); err != nil {
				t.Error(err)
			}
		}
	}

	// Both precedence paths over projection frames: every projection as the
	// target of a query from the trace's first event.
	direct0, routed0 := ts.QueryPathCounts()
	for _, f := range projs {
		if _, err := ts.Precedes(e, f); err != nil {
			t.Fatal(err)
		}
	}
	if direct, routed := ts.QueryPathCounts(); direct == direct0 || routed == routed0 {
		t.Fatalf("queries into the %d projections took the direct path %d times and the routed path %d times: need both", len(projs), direct-direct0, routed-routed0)
	}

	// The same queries through a view held by value: the live one, one at a
	// cut, and that one captured again, which is itself and leaves buf alone.
	precedes := func(v View, targets ...model.EventID) func() {
		return func() {
			for _, f := range targets {
				if _, err := v.Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}
	}
	w := ts.CaptureWatermark(nil)
	buf := make(Watermark, tr.NumProcs)

	var sink int
	views := func(ids []model.EventID) func() {
		return func() {
			for _, id := range ids {
				v, _ := ts.Timestamp(id)
				sink += len(v.Proj) + len(v.Full)
			}
		}
	}
	type allocCase struct {
		name string
		want float64
		run  func()
	}
	cases := []allocCase{
		{"projection views", float64(len(projs)), views(projs)},
		{"keyframe views", 0, views(keyframes)},
		{"views of nibble-framed projections", float64(len(nibbleProjs)), views(nibbleProjs)},
		{"direct precedes, nibble-framed projection target", 0, pair(nibbleDirect)},
		{"routed precedes, nibble-framed projection target", 0, pair(nibbleRouted)},
		{"precedes, projection targets, direct and routed", 0, func() {
			for _, f := range projs {
				if _, err := ts.Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}},
		{"precedes, live view", 0, precedes(ts.Live(), projs...)},
		{"precedes, view at a cut", 0, precedes(ts.At(w), projs...)},
		{"capture of a view at a cut", 0, func() {
			if got := ts.At(w).Capture(buf).Watermark(); &got[0] != &w[0] || len(got) != len(w) {
				t.Errorf("Capture of a view at a cut returned another cut")
			}
			if slices.Max(buf) != 0 {
				t.Errorf("Capture of a view at a cut wrote its buffer: %v", buf)
			}
		}},
	}
	for _, form := range forms {
		cases = append(cases,
			allocCase{fmt.Sprintf("views of %+v frames", form), float64(len(frames[form])), views(frames[form])},
			allocCase{fmt.Sprintf("direct precedes, %+v-framed target", form), 0, precedes(ts.Live(), frames[form]...)},
			allocCase{fmt.Sprintf("routed precedes through a %+v-framed note", form), 0, precedes(ts.Live(), routed[form])})
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
	_ = sink
}

// TestViewsUnderWideKeysAllocateNothing holds the notes TestViewsAllocateNothing's
// trace never stores — no component there outgrows a byte above its key — to
// the same rules: on rpc-fanin's computation, where nearly every note is a
// 16-bit key or a frame under one, a precedence query into either, read
// directly, and one routed through notes under 16-bit keys allocate nothing,
// and the view of either allocates exactly its decoded vector.
func TestViewsUnderWideKeysAllocateNothing(t *testing.T) {
	tr := workload.RPCBusiness(240, 24, 24, 3000, 0.05, 1)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	e := tr.Events[0].ID
	var keys, frames, routed []model.EventID
	for _, ev := range tr.Events {
		c := ts.Live().cell(ev.ID)
		if c.noted() {
			switch n := ts.crs[ev.ID.Process].at(int32(c.vec())); {
			case formOf(n).wide:
				keys = append(keys, ev.ID)
			case n.key&wideBit != 0:
				frames = append(frames, ev.ID)
			}
			continue
		}
		_, before := ts.QueryPathCounts()
		if _, err := ts.Precedes(e, ev.ID); err != nil {
			t.Fatal(err)
		}
		tf, _ := ts.Timestamp(ev.ID)
		if _, after := ts.QueryPathCounts(); after == before || len(routed) >= 64 {
			continue
		}
		for k, q := range tf.Cluster.Members {
			if g := ts.latestCRAtOrBelow(q, tf.Proj[k]); g != nil && g.key&wideBit != 0 {
				routed = append(routed, ev.ID)
				break
			}
		}
	}
	if len(keys) == 0 || len(frames) == 0 || len(routed) == 0 {
		t.Fatalf("%d 16-bit keys, %d frames under one and %d routed targets reading one: need all three", len(keys), len(frames), len(routed))
	}
	var sink int
	views := func(ids []model.EventID) func() {
		return func() {
			for _, id := range ids {
				v, _ := ts.Timestamp(id)
				sink += len(v.Full)
			}
		}
	}
	precedes := func(targets []model.EventID) func() {
		return func() {
			for _, f := range targets {
				if _, err := ts.Live().Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"views of 16-bit keys", float64(len(keys)), views(keys)},
		{"views of frames under a 16-bit key", float64(len(frames)), views(frames)},
		{"direct precedes, 16-bit key targets", 0, precedes(keys)},
		{"direct precedes, targets framed under a 16-bit key", 0, precedes(frames)},
		{"routed precedes through notes under a 16-bit key", 0, precedes(routed)},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
	_ = sink
}

// crOracle is the tests' model of arena.frame for one process: copies of its
// current raw keyframe, key and anchor, nil before its first cluster receive.
type crOracle struct{ raw, key, anchor []int32 }

// crForm is how a note is stored: a key — a raw keyframe or a 16-bit key,
// sparse or dense — or a nibble or a delta frame, sparse or dense.
type crForm struct{ key, wide, nibble, sparse bool }

// sparseFrame reports whether the form is a sparse delta or nibble frame, the
// ones StoreStats.SparseFrames counts.
func (f crForm) sparseFrame() bool { return f.sparse && !f.key }

// formOf reads note n's form off its delta and, for a key, off its key
// reference, as chunkDir's readers do.
func formOf(n *crNote) crForm {
	if n.delta == noDelta {
		wide := n.key&wideBit != 0
		return crForm{key: true, wide: wide, sparse: wide && n.key&sparseBit != 0}
	}
	return crForm{nibble: n.delta&nibbleBit != 0, sparse: n.delta&sparseBit != 0}
}

// store returns how arena.frame must store clk, and the arena elements that
// takes, and moves the raw keyframe, the key and the anchor on. It is a
// nibble frame when every component is within 15 of the anchor — a header,
// then a nibble per component, or a bitmap word per 32 components and the
// nonzero nibbles when that is strictly fewer elements — and otherwise a
// delta frame, the new anchor, when every component is within 255 of the key
// — a byte per component, or the bitmap and the nonzero bytes when strictly
// fewer — and otherwise a 16-bit key, the new key and anchor, when every
// component is within 65535 of the raw keyframe and its header and 16-bit
// fields, dense or sparse by the same rule, are strictly fewer elements than
// a raw keyframe; and otherwise a raw keyframe, which is the key and the
// anchor too.
func (o *crOracle) store(clk []int32) (crForm, int64) {
	n := len(clk)
	moved := func(base []int32, limit int32) (int, bool) {
		nz := 0
		for q := 0; base != nil && q < n; q++ {
			if d := clk[q] - base[q]; d > limit {
				return 0, false
			} else if d != 0 {
				nz++
			}
		}
		return nz, base != nil
	}
	frame := func(nz, per int) (bool, int64) {
		dense, sparse := (n+per-1)/per, (n+31)/32+(nz+per-1)/per
		if sparse < dense {
			return true, int64(sparse)
		}
		return false, int64(dense)
	}
	if nz, ok := moved(o.anchor, 15); ok {
		sparse, e := frame(nz, 8)
		return crForm{nibble: true, sparse: sparse}, 1 + e
	}
	if nz, ok := moved(o.key, 255); ok {
		sparse, e := frame(nz, 4)
		o.anchor = append(o.anchor[:0], clk...)
		return crForm{sparse: sparse}, e
	}
	if nz, ok := moved(o.raw, 65535); ok {
		if sparse, e := frame(nz, 2); 1+e < int64(n) {
			o.key = append(o.key[:0], clk...)
			o.anchor = append(o.anchor[:0], clk...)
			return crForm{key: true, wide: true, sparse: sparse}, 1 + e
		}
	}
	o.raw = append(o.raw[:0], clk...)
	o.key = append(o.key[:0], clk...)
	o.anchor = append(o.anchor[:0], clk...)
	return crForm{key: true}, int64(n)
}

// FuzzCRNoteRoundTrip is the property test of the cluster-receive stored
// form. Each input drives one process's monotone clock sequence through
// appendNote: every two bytes step a run of components by 0, 1, 15, 16, 255,
// 256, 65535 or 70000, over N in {1, 3, 4, 5, 7, 300, 64} (a dense delta frame
// packs four offsets to an element, a dense nibble frame eight and a dense
// 16-bit key two, so N around a multiple of four or eight matters, and below
// four a 16-bit key is never smaller than a raw keyframe; a sparse one has a
// bitmap word per 32 components, and only at 64 can a run reach the last
// one). Every note, re-read after all later ones were carved — through the
// chunk list published then — must decode to exactly its input through both
// readers; a note must be a nibble frame exactly when every component is
// within 15 of the process's anchor, else a delta frame exactly when every
// one is within 255 of its key, else a 16-bit key exactly when every one is
// within 65535 of its raw keyframe and that is strictly smaller, else a raw
// keyframe; a frame must share the key, a 16-bit key's header must name the
// raw keyframe — never another 16-bit key — and either must be sparse exactly
// when that form is strictly smaller (crOracle), and the arena must hold
// exactly the elements the oracle counts for each.
func FuzzCRNoteRoundTrip(f *testing.F) {
	sizes := [...]int{1, 3, 4, 5, 7, 300, 64}
	steps := [...]int32{0, 1, 255, 256, 70000, 15, 16, 65535}
	// (start component, run length<<3 | step): one seed per step kind, then mixes.
	for sel := range sizes {
		for st := range steps {
			f.Add(uint8(sel), []byte{0, byte(st), 1, byte(st), 2, byte(31<<3 | st), 0, byte(st)})
		}
		f.Add(uint8(sel), []byte{0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 7, 31<<3 | 1, 0, 0, 4, 4, 4, 2, 4, 1})
	}
	// N = 4, steps of 16 on one component at a time: no nibble frame fits, so
	// the notes are one-element delta frames and, where a component outgrows
	// its byte, three-element 16-bit keys over the first note, a four-element
	// raw keyframe; the 245th note is a 16-bit key that ends on the last
	// element of the first chunk. With a two-element nibble frame behind the
	// raw keyframe, the 246th note is that 16-bit key, carved at the first
	// element of the second chunk over the raw keyframe in the first, and a
	// delta frame over it follows. (A bitmap word is as large as the dense
	// frame here, so no frame is sparse.)
	boundary := make([]byte, 0, 512)
	for i := 0; i < 245; i++ {
		boundary = append(boundary, byte(i%4), 6)
	}
	f.Add(uint8(2), boundary)
	f.Add(uint8(2), append(append([]byte{0, 6, 1, 1}, boundary[2:]...), 1, 6))
	// N = 4, steps of 0: a keyframe and then two-element nibble frames over it,
	// the keyframe itself their anchor; the 127th one's header is the first
	// element of the second chunk. Then 123 of them, a delta frame at 250 (a
	// step of 16) and two more nibble frames to 254: the next one, over that
	// delta frame, does not fit in the last element and starts the next chunk,
	// its anchor left in the one before.
	f.Add(uint8(2), make([]byte, 2*128))
	straddle := append(make([]byte, 2*124), 0, 6, 0, 0, 0, 0, 0, 0)
	f.Add(uint8(2), straddle)
	// N = 300, steps of 16: a keyframe over components 0-31, then sparse delta
	// frames with 32, 64, 96, 128 and 160 components moved — 18, 26, 34, 42
	// and 50 elements — end at 470 of the keyframe's 512-element allocation.
	// The next frame does not fit what is left: with 192 moved it is stored
	// sparse, its 58 elements carved at the first element of a fresh chunk;
	// with a step of 256 it becomes a sparse 16-bit key, a header and 90
	// elements, the header the first thing in that chunk.
	fill := []byte{0, 31<<3 | 6, 0, 31<<3 | 6, 32, 31<<3 | 6, 64, 31<<3 | 6, 96, 31<<3 | 6, 128, 31<<3 | 6}
	f.Add(uint8(5), append(slices.Clone(fill), 160, 31<<3|6))
	f.Add(uint8(5), append(slices.Clone(fill), 0, 3))
	// N = 300, the delta frame's break-even: runs of 32 move components 0-255
	// by 16, past any nibble, then 255 on by 2, 5 or 6 components. 256 moved is
	// 10 + 64 elements against 75, sparse; 257 is 10 + 65, no smaller, dense, as
	// are 260 (the last that fits 65 elements) and 261.
	even := []byte{0, 0}
	for c := 0; c < 256; c += 32 {
		even = append(even, byte(c), 31<<3|6)
	}
	for _, run := range []byte{2, 5, 6} {
		f.Add(uint8(5), append(slices.Clone(even), 255, (run-1)<<3|6))
	}
	// N = 300, the nibble frame's break-even: runs of 32 move components 0-191
	// by 1, each note a nibble frame over the keyframe, then 192 on by 24 or
	// 25. 216 moved is 1 + 10 + 27 elements against 1 + 38, sparse; 217 is
	// dense. Then a step of 15 on component 0, 16 above the keyframe: a delta
	// frame, the new anchor; then 15 on it, exactly a nibble's reach.
	nibbles := []byte{0, 0}
	for c := 0; c < 192; c += 32 {
		nibbles = append(nibbles, byte(c), 31<<3|1)
	}
	for _, run := range []byte{24, 25} {
		f.Add(uint8(5), append(slices.Clone(nibbles), 192, (run-1)<<3|1, 0, 5, 0, 5))
	}
	// N = 300, the 16-bit key's reach: a raw keyframe, then 65535 on
	// component 0, a sparse 16-bit key; then, from a fresh raw keyframe, 1 (a
	// nibble frame) and 65535, 65536 above it: a raw keyframe.
	f.Add(uint8(5), []byte{0, 0, 0, 7})
	f.Add(uint8(5), []byte{0, 0, 0, 1, 0, 7})
	// N = 300 and 4: a 16-bit key, then a delta frame (16) and a nibble frame
	// (1) over it, then 256 more, 273 above the key and 529 above the raw
	// keyframe: a second 16-bit key over the same raw keyframe, with a nibble
	// frame over it; then 65535, past the 16 bits: a raw keyframe.
	for _, sel := range []uint8{5, 2} {
		f.Add(sel, []byte{0, 0, 0, 3, 0, 6, 0, 1, 0, 3, 0, 1, 0, 7})
	}
	// N = 300, the 16-bit key's break-even: runs of 32 move components 0-255
	// by 256 — each note a sparse 16-bit key over the raw keyframe, the next
	// one replacing it — then 255 on by 23 or 24 components. 278 moved is
	// 10 + 139 elements against 150, sparse; 279 is dense. A dense 16-bit
	// key, 1 + 150 elements, is still smaller than the raw keyframe's 300.
	wide := []byte{0, 0}
	for c := 0; c < 256; c += 32 {
		wide = append(wide, byte(c), 31<<3|3)
	}
	for _, run := range []byte{23, 24} {
		f.Add(uint8(5), append(slices.Clone(wide), 255, (run-1)<<3|3))
	}
	// N = 300 and 64: components 31 and 32, either side of a bitmap word; the
	// last component of 64, in its last bit; a frame with one component moved.
	f.Add(uint8(5), []byte{0, 0, 31, 1<<3 | 1, 31, 1<<3 | 1})
	f.Add(uint8(6), []byte{0, 0, 31, 1<<3 | 1, 63, 1, 0, 1})
	f.Add(uint8(5), []byte{0, 0, 17, 1})
	// N = 7, not a multiple of 4: the second packed element holds three
	// offsets. Its top one goes to 255 and then one past.
	f.Add(uint8(4), []byte{6, 2, 6, 0, 4, 1, 6, 1, 6, 0})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		n := sizes[int(sel)%len(sizes)]
		if len(data) > 512 {
			data = data[:512] // 256 notes of at most +70000: far from int32 overflow
		}
		var (
			ar      arena
			notes   crColumn
			clk     = make([]int32, n)
			inputs  [][]int32
			oracle  crOracle
			elems   int64 // what the oracle says the notes' vectors take
			sparses int64 // and how many are sparse delta or nibble frames
			wides   int64 // and 16-bit keys
			prevKey = noDelta
			prevRaw = noDelta
		)
		for i := 0; i+1 < len(data); i += 2 {
			step := steps[int(data[i+1]&7)%len(steps)]
			for k, run := 0, 1+int(data[i+1]>>3); k < run; k++ {
				clk[(int(data[i])+k)%n] += step
			}
			curRaw, curKey, curAnchor := oracle.raw, oracle.key, oracle.anchor
			want, e := oracle.store(clk)
			note := notes.at(appendNote(&notes, &ar, int32(len(inputs)+1), clk))
			if note.index != int32(len(inputs)+1) {
				t.Fatalf("note %d reads back as index %d", len(inputs)+1, note.index)
			}
			if got := formOf(note); got != want {
				t.Fatalf("note %d: stored as %+v, want %+v (clock %v over raw keyframe %v, key %v and anchor %v)", note.index, got, want, clk, curRaw, curKey, curAnchor)
			}
			switch {
			case !want.key && note.key != prevKey:
				t.Fatalf("note %d: a frame over the key %#x, current key %#x", note.index, note.key, prevKey)
			case want.wide:
				if raw := uint32(ar.chunks.at(note.key&offMask - rawElem)); raw != prevRaw {
					t.Fatalf("note %d: a 16-bit key over the raw keyframe at %d, current raw keyframe at %d", note.index, raw, prevRaw)
				}
				wides++
			case want.key:
				prevRaw = note.key
			}
			prevKey = note.key
			elems += e
			if want.sparseFrame() {
				sparses++
			}
			inputs = append(inputs, append([]int32(nil), clk...))
		}
		if got := notes.wm.Load(); int(got) != len(inputs) {
			t.Fatalf("%d notes published, %d appended", got, len(inputs))
		}
		var vecs chunkDir
		if len(inputs) > 0 {
			vecs = *ar.dir.Load()
		}
		for i, want := range inputs {
			note := notes.get(model.EventIndex(i + 1))
			full := vecs.full(note, n, nil)
			for q := range want {
				if c := vecs.component(note, model.ProcessID(q), n); c != want[q] || full[q] != want[q] {
					t.Fatalf("note %d (%+v) component %d: component() = %d, full() = %d, input %d", note.index, formOf(note), q, c, full[q], want[q])
				}
			}
		}
		// Nothing is carved for a form that does not fit: the tallies count
		// what notes hold, every form, and the next carve is clean.
		st := ar.stats
		if st.Keyframes+st.DeltaFrames+st.NibbleFrames != int64(len(inputs)) || st.WideKeys != wides || st.SparseFrames != sparses || st.VectorBytes != 4*elems {
			t.Fatalf("tallies %+v for %d notes of %d components, %d 16-bit keys, %d sparse frames, %d elements", st, len(inputs), n, wides, sparses, elems)
		}
		_, fresh := ar.carve(n)
		for q, v := range fresh {
			if v != 0 {
				t.Fatalf("carve after %d frames: element %d = %d, want zeroed", len(inputs), q, v)
			}
		}
	})
}

// FuzzProjFrameRoundTrip is the property test of the projection stored form,
// as FuzzCRNoteRoundTrip is of the cluster receives', driven through the one
// writer, lane.stamp, and read back through the views. Each input is the event
// sequence of one process of a cluster of N members — every other component of
// the clock, so the member list is not the identity, and the process not the
// first of them — with N in {1, 2, 3, 4, 5, 13, 254, 255, 300}. Every two bytes are
// one op, the low four bits of the second its code and the high four a run
// length: a receive that first steps a run of the other members' components
// by 0, 1, 255, 256, 70000, 15 or 16; a unary event under a new epoch over the
// same members; a run of sends and unary events ("share"); or a noted cluster
// receive.
//
// A cell must name its predecessor's frame, and carve nothing, exactly when
// its event is a send or unary, the process's previous event was a projection
// and the epoch is that projection's. Any other projection must start a
// keyframe exactly when it is the process's first or its epoch changed —
// every offset being small does not excuse it, the members could differ — and
// otherwise be the first form that fits (projOracle): a nibble frame over the
// anchor when every component other than the own is within 15 of it, else a
// byte frame over the keyframe, the new anchor, when every one is within 255
// of that, else a keyframe, whose own frame, right behind its elements, is the
// anchor. The own component is the event's index, is not stored, and never
// re-keys. A frame must name the current keyframe or anchor, and the
// process's projection state must say where both are. The epoch is the
// keyframe's, not the cell's: every projection, shared cells and a unary event
// under a new epoch over the same members among them, must read the epoch it
// was stamped under through its frame's keyframe, at once and after all later
// events were carved. Every event, re-read after all later ones were carved,
// must show the clock it was stamped with — the own component included, which
// for a shared cell only the slot can say — and the arena must hold exactly
// the elements the oracle counts.
func FuzzProjFrameRoundTrip(f *testing.F) {
	sizes := [...]int{1, 2, 3, 4, 5, 13, 254, 255, 300}
	steps := [...]int32{0, 1, 255, 256, 70000, 15, 16}
	const (
		newEpoch = 7 + iota // op codes above the steps
		share
		noted
	)
	// (start member, run length<<4 | op): one seed per op, then mixes.
	for sel := range sizes {
		for op := 0; op <= noted; op++ {
			f.Add(uint8(sel), []byte{0, byte(op), 1, byte(op), 2, byte(15<<4 | op), 0, byte(op)})
		}
		// An offset of exactly 255, then of 256; an epoch change among small steps.
		f.Add(uint8(sel), []byte{0, 0, 0, 2, 0, 1, 0, 1, 0, newEpoch, 0, 1, 7, 15<<4 | 1, 0, 0, 4, 4, 4, 2, 4, 1})
		// A share after a keyframe and after a frame; none after a noted cluster
		// receive (a frame) nor across an epoch change (a keyframe), and shares
		// again behind each.
		f.Add(uint8(sel), []byte{0, 1, 0, share, 1, 1, 0, 2<<4 | share, 0, noted, 0, share, 0, share, 0, newEpoch, 0, share})
	}
	// N = 4: a 7-element keyframe and 124 two-element frames — a nibble frame
	// and a byte frame are both two elements here — leave the first chunk's
	// last element unused, so the 125th frame is the first thing in a chunk
	// allocated for it.
	boundary := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		boundary = append(boundary, byte(i%4), 1)
	}
	f.Add(uint8(3), boundary)
	// N = 4: a keyframe and 122 frames leave five elements of the first chunk,
	// so the keyframe a unary event under a new epoch starts does not fit, and
	// its epoch element is the first element of a fresh chunk; a shared cell
	// and a frame follow over it.
	fresh := append([]byte(nil), boundary[:2+2*122]...)
	f.Add(uint8(3), append(fresh, 0, newEpoch, 0, share, 1, 1))
	// N = 4: two keyframes, the second under a new epoch, and 121 frames fill
	// the first chunk exactly, 14 + 121·2 = 256 elements, so the 121st frame
	// ends on its last element and the 122nd is the first thing in the next.
	f.Add(uint8(3), append([]byte{0, 1, 0, newEpoch}, boundary[2:2+2*122]...))
	// N = 254: the first keyframe is its epoch element, 254 elements and a
	// 65-element frame, more than the first chunk, so it takes the first two
	// chunks in one allocation and its frame's header is the last element of
	// the first chunk, its packed bytes the first of the second. The second
	// seed shares that frame.
	f.Add(uint8(6), []byte{0, 1, 0, 1, 3, 2})
	f.Add(uint8(6), []byte{0, 1, 0, 3<<4 | share, 3, 1, 0, share})
	// N = 300: the first keyframe, 377 elements, and a 39-element nibble frame
	// leave 96 of its 512-element allocation; the step of 256 makes the next
	// projection a keyframe, carved whole at the first element of a fresh
	// chunk: nothing was carved for the two frames that did not fit.
	f.Add(uint8(8), []byte{0, 1, 0, 1, 0, 3})
	// N = 13: 320 shared cells carry the own component 321 past the keyframe's,
	// and the receive behind them is a frame all the same.
	shares := []byte{0, 1}
	for i := 0; i < 20; i++ {
		shares = append(shares, 0, 15<<4|share)
	}
	f.Add(uint8(5), append(shares, 1, 1, 0, share))
	// N = 13: a 19-element keyframe, 77 three-element nibble frames over its
	// zero frame and a five-element byte frame end on element 255 of the first
	// chunk; the nibble frame after it starts the second, its anchor left in
	// the first.
	anchored := []byte{0, 0}
	for i := 0; i < 77; i++ {
		anchored = append(anchored, 0, 0)
	}
	f.Add(uint8(5), append(anchored, 0, 6, 0, 0, 1, 5))
	// N = 13: a byte frame 255 above the keyframe, the anchor; then a nibble
	// frame 15 above it, 270 above the keyframe; then one more, 16 above the
	// anchor and 271 above the keyframe: a keyframe.
	f.Add(uint8(5), []byte{0, 0, 0, 2, 0, 5, 0, 1})
	// N = 13: between an anchor and the next frame, an epoch change — the
	// frame is over the new keyframe's zero frame — or a noted cluster receive,
	// which ends neither the keyframe nor the anchor.
	f.Add(uint8(5), []byte{0, 0, 0, 6, 0, newEpoch, 0, 1, 0, 6, 0, 1})
	f.Add(uint8(5), []byte{0, 0, 0, 6, 0, noted, 0, 1, 0, noted, 0, 6})
	// N = 13 and 5: shared cells after a nibble frame over the zero frame and
	// after one over a byte frame.
	for _, sel := range []uint8{4, 5} {
		f.Add(sel, []byte{0, 0, 0, 1, 0, share, 0, 6, 0, 1, 0, 3<<4 | share})
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		n := sizes[int(sel)%len(sizes)]
		if len(data) > 512 {
			data = data[:512] // 256 ops of at most +70000: far from int32 overflow
		}
		numProcs, ownPos := 2*n+1, (n-1)/2
		members := make([]int32, n)
		for k := range members {
			members[k] = int32(2*k + 1)
		}
		own := model.ProcessID(members[ownPos])
		pipe, err := NewPipeline(numProcs, Config{MaxClusterSize: n}, PipelineOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		// An epoch for every op, all over the same members: the table is the
		// planner's to fill, and no planner runs here.
		table := make([]*cluster.Info, 2+len(data)/2)
		for i := 1; i < len(table); i++ {
			table[i] = &cluster.Info{ID: cluster.ID(i), Members: members}
		}
		pipe.epochs.Store(&table)
		var (
			ln, ar = pipe.lanes[0], pipe.lanes[0].ar
			key    = &pipe.lanes[0].keys[own]
			ep     = uint32(1)
			clk    = make(vclock.Clock, numProcs)
			inputs []Timestamp // what each event was stamped with: Cluster and Proj, or Full
			oracle projOracle
			tally  StoreStats // the projection forms the oracle expects
			live   bool       // the oracle's: the previous event was a projection
			lastEp uint32     // and under this epoch
		)
		// stamp drives one event through the lane and holds what it stored to
		// the rules above.
		stamp := func(kind model.Kind, ep uint32) {
			clk[own]++
			e := model.Event{ID: model.EventID{Process: own, Index: model.EventIndex(clk[own])}, Kind: kind}
			before, prev := ar.end(), *key
			ln.stamp(e, clk, ep)
			c := pipe.cols[own].get(e.ID.Index)
			if c == nil || c.noted() != (ep == 0) || c.kind() != kind || clk[own] != int32(e.ID.Index) {
				t.Fatalf("%v: cell %+v under epoch %d, the clock's own component left at %d", e.ID, c, ep, clk[own])
			}
			if ep == 0 {
				if key.live || key.last != prev.last || key.anchor != prev.anchor {
					t.Fatalf("%v: a noted cluster receive left the process's projection state at %+v, was %+v", e.ID, *key, prev)
				}
				live = false
				inputs = append(inputs, Timestamp{ID: e.ID, Full: slices.Clone(clk)})
				return
			}
			want := clk.ProjectInto(make([]int32, n), members)
			inputs = append(inputs, Timestamp{ID: e.ID, Cluster: table[ep], Proj: want})
			if got := ar.chunks.proj(c.vec()).ep; got != ep {
				t.Fatalf("%v: stamped under epoch %d, its keyframe holds %d", e.ID, ep, got)
			}
			wantShare := live && lastEp == ep && (kind == model.Unary || kind == model.Send)
			if shared := ar.end() == before; shared != wantShare || shared && (c.vec() != prev.last || *key != prev) {
				t.Fatalf("%v (kind %v, epoch %d): shared = %v, want %v: cell names %d, projection state %+v, was %+v", e.ID, kind, ep, shared, wantShare, c.vec(), *key, prev)
			}
			live, lastEp = true, ep
			if wantShare {
				return
			}
			curKey, curAnchor := oracle.key, oracle.anchor
			form := oracle.store(want, ownPos, prev.ep != ep)
			header := uint32(ar.chunks.at(c.vec()))
			got := projByte
			if header&projNibbleBit != 0 {
				got = projNibble
			} else if header+uint32(n) == c.vec() {
				got = projKeyframe
			}
			if got != form {
				t.Fatalf("%v: stored as form %d, want %d (epoch %d, projection %v over the keyframe %v and the anchor %v of epoch %d)", e.ID, got, form, ep, want, curKey, curAnchor, prev.ep)
			}
			next := projKey{at: prev.at, ep: ep, anchor: c.vec(), last: c.vec(), live: true}
			switch form {
			case projKeyframe:
				next.at = header
				tally.ProjKeyframes++
			case projByte:
				if header != prev.at {
					t.Fatalf("%v: byte frame over the keyframe at %d, current keyframe at %d", e.ID, header, prev.at)
				}
				tally.ProjFrames++
			case projNibble:
				if header&offMask != prev.anchor {
					t.Fatalf("%v: nibble frame over the anchor at %d, current anchor at %d", e.ID, header&offMask, prev.anchor)
				}
				next.anchor = prev.anchor
				tally.ProjNibbleFrames++
			}
			if *key != next {
				t.Fatalf("%v: the process's projection state is %+v, want %+v", e.ID, *key, next)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			run := 1 + int(data[i+1]>>4)
			switch op := int(data[i+1]&15) % (noted + 1); op {
			case newEpoch:
				ep++
				stamp(model.Unary, ep)
			case share:
				for k := 0; k < run; k++ {
					stamp([...]model.Kind{model.Unary, model.Send}[k&1], ep)
				}
			case noted:
				stamp(model.Receive, 0)
			default:
				for k := 0; k < run; k++ {
					if q := members[(int(data[i])+k)%n]; q != int32(own) {
						clk[q] += steps[op]
					}
				}
				stamp(model.Receive, ep)
			}
		}
		var vecs chunkDir
		if len(inputs) > 0 {
			vecs = pipe.vectors(own)
		}
		for _, want := range inputs {
			got, ok := pipe.Timestamp(want.ID)
			if !ok || got.Cluster != want.Cluster || !slices.Equal(got.Proj, want.Proj) || !slices.Equal(got.Full, want.Full) {
				t.Fatalf("%v reads back as %v (found = %v), stamped %v", want.ID, got, ok, want)
			}
			if want.Cluster == nil {
				continue
			}
			p := vecs.proj(pipe.cols[own].get(want.ID.Index).vec())
			if table[p.ep] != want.Cluster {
				t.Fatalf("%v: its keyframe reads back epoch %d, stamped under %v", want.ID, p.ep, want.Cluster)
			}
			for k := range want.Proj {
				if c := p.member(k); k != ownPos && c != want.Proj[k] {
					t.Fatalf("%v component %d: member() = %d, stamped %d", want.ID, k, c, want.Proj[k])
				}
			}
		}
		// Nothing is carved for a form that does not fit: the tallies count
		// only what cells and notes name, the notes' in either form, and the
		// next carve is clean.
		var (
			notes             crOracle
			crElems, crSparse int64
		)
		for _, in := range inputs {
			if in.Full != nil {
				form, e := notes.store(in.Full)
				crElems += e
				if form.sparseFrame() {
					crSparse++
				}
			}
		}
		st := ar.stats
		w, nw := int64(packedWords(n, byteLg)), int64(packedWords(n, nibbleLg))
		if st.ProjKeyframes != tally.ProjKeyframes || st.ProjFrames != tally.ProjFrames || st.ProjNibbleFrames != tally.ProjNibbleFrames ||
			st.ProjKeyframes+st.ProjFrames+st.ProjNibbleFrames+st.ProjShared+st.Keyframes+st.DeltaFrames+st.NibbleFrames != int64(len(inputs)) || st.SparseFrames != crSparse ||
			st.VectorBytes != 4*(st.ProjKeyframes*(int64(n)+2+w)+st.ProjFrames*(1+w)+st.ProjNibbleFrames*(1+nw)+crElems) {
			t.Fatalf("tallies %+v for %d events over %d members of %d processes, %d sparse notes; the oracle counts %d + %d + %d projection keyframes, byte and nibble frames",
				st, len(inputs), n, numProcs, crSparse, tally.ProjKeyframes, tally.ProjFrames, tally.ProjNibbleFrames)
		}
		_, fresh := ar.carve(n)
		for k, v := range fresh {
			if v != 0 {
				t.Fatalf("carve after %d events: element %d = %d, want zeroed", len(inputs), k, v)
			}
		}
	})
}

// projOracle is the tests' model of arena.project for one process: copies of
// its current projection keyframe and anchor, nil before its first projection.
type projOracle struct{ key, anchor []int32 }

// The forms of a projection that carves.
const (
	projKeyframe = iota
	projByte
	projNibble
)

// store returns the form arena.project must store the projection proj in,
// own its process's position, and moves the keyframe and the anchor on. A new
// epoch always starts a keyframe. Otherwise it is a nibble frame when every
// member but the own is within 15 of the anchor — which may leave it as much
// as 270 above the keyframe — else a byte frame, the new anchor, when every
// one is within 255 of the keyframe, else a keyframe, which is the anchor too.
func (o *projOracle) store(proj []int32, own int, newEpoch bool) int {
	within := func(base []int32, limit int32) bool {
		for k := range proj {
			if k != own && proj[k]-base[k] > limit {
				return false
			}
		}
		return true
	}
	switch {
	case o.key == nil || newEpoch:
	case within(o.anchor, 15):
		return projNibble
	case within(o.key, 255):
		o.anchor = slices.Clone(proj)
		return projByte
	}
	o.key, o.anchor = slices.Clone(proj), slices.Clone(proj)
	return projKeyframe
}
