package hct

import (
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
					if own, _ := ts.Component(newest.Process); own != int32(newest.Index) ||
						(ts.Full == nil && len(ts.Proj) != len(ts.Cluster.Members)) {
						t.Errorf("Timestamp(%v) = %v: own component %d, %d elements over %v", newest, ts, own, len(ts.Proj), ts.Cluster)
						return
					}
				}
				// The newest note below the cut, keyframe or delta frame: both
				// readers of the stored form against the oracle.
				if g := pipe.latestCRAtOrBelow(int32(p), int32(top)); g != nil {
					want := clock[model.EventID{Process: p, Index: model.EventIndex(g.index())}]
					q := model.ProcessID(r.Intn(tr.NumProcs))
					vecs := pipe.vectors(p)
					if full := vecs.full(g, tr.NumProcs); !vclock.Clock(full).Equal(want) || vecs.component(g, q, tr.NumProcs) != want[q] {
						t.Errorf("note p%d:%d decodes to %v (component %d = %d), Fidge/Mattern %v", p, g.index(), full, q, vecs.component(g, q, tr.NumProcs), want)
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
	t.Logf("%d reader rounds against %d events; widest note column %d pages; %d keyframes and %d delta frames, %d processes rolled over; %d epochs",
		checked.Load(), len(tr.Events), notePages, st.Keyframes, st.DeltaFrames, rolled, st.Epochs)
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
// 1(e)) on three of the benchmark's computations at maxCS 13: the live heap a
// one-lane engine gains per ingested event stays under a stated budget, and
// stamping allocates per page and per arena chunk, never per event. Trace and
// engine are built before the measured region.
//
// The ring (spmd-stream): a 4-byte cell for every event; of the 96% that
// carry a projection, over a cluster of up to 13, half are sends whose cell
// names the frame of the receive before them, and the other half carve a
// 20-byte frame (the keyframe offset and four elements of packed bytes), with a
// 76-byte keyframe — its epoch element, 13 raw elements and its own frame —
// once per ≈80 of them,
// where a neighbour's component outgrows its byte or a merge changes the
// members (≈10 B/event; 19.5 when every projection carved its frame, 50 when
// every one kept its 13 ints); for the ≈4% that are noted cluster receives a
// 12-byte note and a 300-byte delta frame — 98% of them move every component,
// so few are sparse — with a 1200-byte keyframe once per ≈90 of them (≈13
// B/event, 49 when every one kept its full vector); partial pages and the last
// arena chunk — ≈27.6 B/event measured. The budget of 30 is below the 31.9 the
// store measured with an 8-byte cell that kept the epoch, so putting the epoch
// back in the cell fails it, as does the partner (40.6 with a 16-byte cell), a
// frame per projection (50.5), a pointer in the cell or a returned full vector
// per cluster receive.
//
// RandomUniform(280) (scattered-stream): no locality, so 47.8% of events are
// noted cluster receives and their frames are most of the store — 4 B for
// every event, ≈5.5 of projection frames (half of the other half share one),
// plus ≈0.48 × (12 + 280 + a keyframe's share) ≈ 142, 91% of the frames moving
// every component — ≈155.4 B/event measured against 160.1 with the epoch in
// the cell, 169.6 with the partner too, 171.3 with dense frames only too, 177
// with a frame per projection, 192 with raw projections, 225 with pointers too
// and 619 with full vectors; budget 158, which the 8-byte cell fails. Its columns hold a third
// of the ring's events each, so pages and directories come to 0.025
// allocations per event, not 0.013.
//
// RPCBusiness(240, 24, 24) (rpc-fanin, 288 processes): a cluster receive's
// frame moves a median 2% of its components, so every delta frame is sparse —
// a 36-byte bitmap and the few moved bytes where the dense frame was 288 bytes
// — and the 2924 keyframes are as many as with dense frames only: vectors
// ≈30.3 B/event against 40.1, ≈41.1 B/event measured against 45.9 with the
// epoch in the cell, 55.4 with the partner too and 66.2 with dense frames too;
// budget 44, which the 8-byte cell fails.
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
		{"ring", workload.Ring(300, 330, false), 30, 0.02},
		{"random-uniform", workload.RandomUniform(280, 150000, 1), 158, 0.04},
		{"rpc", workload.RPCBusiness(240, 24, 24, 22000, 0.05, 1), 44, 0.04},
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
			t.Logf("%d events: %.1f heap B/event (%.1f in cells, %.1f in notes, %.1f carved for vectors: %d + %d projection keyframes and frames under %d cells that share one, %d + %d cluster-receive keyframes and delta frames, %d of them sparse; %d epochs), %.4f allocs/event, size ratio %.3f",
				len(tr.Events), bytesPer, float64(st.CellBytes)/n, float64(st.NoteBytes)/n, float64(st.VectorBytes)/n, st.ProjKeyframes, st.ProjFrames, st.ProjShared, st.Keyframes, st.DeltaFrames, st.SparseFrames, st.Epochs, allocsPer,
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
			if got, want := st.Keyframes+st.DeltaFrames, int64(ts.ClusterReceives()); got != want {
				t.Errorf("%d keyframes + delta frames for %d noted cluster receives", got, want)
			}
			if got, want := st.ProjKeyframes+st.ProjFrames+st.ProjShared, int64(len(tr.Events)-ts.ClusterReceives()); got != want {
				t.Errorf("%d projection keyframes + frames + shared cells for the %d events that are not noted cluster receives", got, want)
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
// path, one resolved once and indexed per member on the routed path, a
// cluster receive stored as a dense or a sparse delta frame read directly or
// reached through the notes; the view of a projection or of a delta-framed
// cluster receive, either form, allocates exactly its decoded vector; and a
// hct.View asks the same with no allocation of its own, live or at a cut,
// capturing a cut view being the identity.
func TestViewsAllocateNothing(t *testing.T) {
	tr := workload.Ring(16, 8, false)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	var projs, keyframes, deltas, sparses []model.EventID
	for _, ev := range tr.Events {
		c := ts.Live().cell(ev.ID)
		if !c.noted() {
			projs = append(projs, ev.ID)
			continue
		}
		switch note := ts.crs[ev.ID.Process].at(int32(c.vec())); {
		case note.delta == noDelta:
			keyframes = append(keyframes, ev.ID)
		case note.sparse():
			sparses = append(sparses, ev.ID)
		default:
			deltas = append(deltas, ev.ID)
		}
	}
	if len(projs) == 0 || len(keyframes) == 0 || len(deltas) == 0 || len(sparses) == 0 {
		t.Fatalf("trace stores %d projections, %d keyframes, %d dense and %d sparse delta frames: need all four", len(projs), len(keyframes), len(deltas), len(sparses))
	}
	// A pair whose test routes through the notes and finds a delta frame of the
	// given form there.
	routesThrough := func(f model.EventID, sparse bool) bool {
		tf, _ := ts.Timestamp(f)
		if tf.Cluster == nil {
			return false
		}
		for k, q := range tf.Cluster.Members {
			if g := ts.latestCRAtOrBelow(q, tf.Proj[k]); g != nil && g.delta != noDelta && g.sparse() == sparse {
				return true
			}
		}
		return false
	}
	e := tr.Events[0].ID
	var routed, routedSparse model.EventID
	for i := len(tr.Events) - 1; i >= 0 && (routed == (model.EventID{}) || routedSparse == (model.EventID{})); i-- {
		_, before := ts.QueryPathCounts()
		f := tr.Events[i].ID
		if _, err := ts.Precedes(e, f); err != nil {
			t.Fatal(err)
		}
		if _, after := ts.QueryPathCounts(); after > before {
			if routed == (model.EventID{}) && routesThrough(f, false) {
				routed = f
			}
			if routedSparse == (model.EventID{}) && routesThrough(f, true) {
				routedSparse = f
			}
		}
	}
	if routed == (model.EventID{}) || routedSparse == (model.EventID{}) {
		t.Fatalf("no precedence pair in the trace routes through a dense (%v) or a sparse (%v) delta-framed note", routed, routedSparse)
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
	precedes := func(v View) func() {
		return func() {
			for _, f := range projs {
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
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"projection views", float64(len(projs)), views(projs)},
		{"keyframe views", 0, views(keyframes)},
		{"delta-frame views", float64(len(deltas)), views(deltas)},
		{"sparse-frame views", float64(len(sparses)), views(sparses)},
		{"precedes, projection targets, direct and routed", 0, func() {
			for _, f := range projs {
				if _, err := ts.Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}},
		{"direct precedes, delta-framed target", 0, func() {
			for _, f := range deltas {
				if _, err := ts.Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}},
		{"direct precedes, sparse-framed target", 0, func() {
			for _, f := range sparses {
				if _, err := ts.Precedes(e, f); err != nil {
					t.Error(err)
				}
			}
		}},
		{"routed precedes through a delta-framed note", 0, func() {
			if _, err := ts.Precedes(e, routed); err != nil {
				t.Error(err)
			}
		}},
		{"routed precedes through a sparse-framed note", 0, func() {
			if _, err := ts.Precedes(e, routedSparse); err != nil {
				t.Error(err)
			}
		}},
		{"precedes, live view", 0, precedes(ts.Live())},
		{"precedes, view at a cut", 0, precedes(ts.At(w))},
		{"capture of a view at a cut", 0, func() {
			if got := ts.At(w).Capture(buf).Watermark(); &got[0] != &w[0] || len(got) != len(w) {
				t.Errorf("Capture of a view at a cut returned another cut")
			}
			if slices.Max(buf) != 0 {
				t.Errorf("Capture of a view at a cut wrote its buffer: %v", buf)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
	_ = sink
}

// crOracle is the tests' model of arena.frame for one process: a copy of its
// current cluster-receive keyframe, nil before its first cluster receive.
type crOracle struct{ key []int32 }

// store returns how arena.frame must store clk — a keyframe when some
// component exceeds the current one by more than 255, otherwise a delta frame
// over it, sparse exactly when a bitmap word per 32 components and the nonzero
// bytes are strictly fewer elements than a byte per component — and the arena
// elements that takes, and moves the keyframe on.
func (o *crOracle) store(clk []int32) (key, sparse bool, elems int64) {
	n, nz := len(clk), 0
	key = o.key == nil
	for q := 0; !key && q < n; q++ {
		key = clk[q]-o.key[q] > 255
		if clk[q] != o.key[q] {
			nz++
		}
	}
	if key {
		o.key = append(o.key[:0], clk...)
		return true, false, int64(n)
	}
	dense, sparseElems := (n+3)/4, (n+31)/32+(nz+3)/4
	if sparseElems < dense {
		return false, true, int64(sparseElems)
	}
	return false, false, int64(dense)
}

// FuzzCRNoteRoundTrip is the property test of the cluster-receive stored
// form. Each input drives one process's monotone clock sequence through
// appendNote: every two bytes step a run of components by 0, 1, 255, 256 or
// 70000, over N in {1, 3, 4, 5, 7, 300, 64} (a dense delta frame packs four
// offsets to an element, so N around a multiple of four matters; a sparse one
// has a bitmap word per 32 components, and only at 64 can a run reach the last
// one). Every note, re-read after all later ones were carved — through the
// chunk list published then — must decode to exactly its input through both
// readers; a note must be a keyframe exactly when some component exceeds the
// process's current keyframe by more than 255, a delta frame must share that
// keyframe and be sparse exactly when that form is strictly smaller (crOracle),
// and the arena must hold exactly the elements the oracle counts for each.
func FuzzCRNoteRoundTrip(f *testing.F) {
	sizes := [...]int{1, 3, 4, 5, 7, 300, 64}
	steps := [...]int32{0, 1, 255, 256, 70000}
	// (start component, run length<<3 | step): one seed per step kind, then mixes.
	for sel := range sizes {
		for st := range steps {
			f.Add(uint8(sel), []byte{0, byte(st), 1, byte(st), 2, byte(31<<3 | st), 0, byte(st)})
		}
		f.Add(uint8(sel), []byte{0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 7, 31<<3 | 1, 0, 0, 4, 4, 4, 2, 4, 1})
	}
	// N = 4: a keyframe and 252 one-element delta frames fill the first chunk
	// to its last element, so the 253rd frame's carve lands exactly on the
	// boundary, at the first element of a chunk allocated for it. (A bitmap
	// word is as large as the dense frame here, so no frame is sparse.)
	boundary := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		boundary = append(boundary, byte(i%4), 1)
	}
	f.Add(uint8(2), boundary)
	// N = 300: a keyframe over components 0-31, then sparse frames with 32, 64,
	// 96, 128 and 160 components moved — 18, 26, 34, 42 and 50 elements — end
	// at 470 of the keyframe's 512-element allocation. The next frame's dense
	// carve starts a fresh chunk: with 192 moved it is stored sparse, the 58
	// elements carved at that chunk's first element; with a step of 256 it does
	// not fit, so the un-carve empties the chunk again and the new keyframe is
	// the first thing in it.
	fill := []byte{0, 31<<3 | 1, 0, 31<<3 | 1, 32, 31<<3 | 1, 64, 31<<3 | 1, 96, 31<<3 | 1, 128, 31<<3 | 1}
	f.Add(uint8(5), append(slices.Clone(fill), 160, 31<<3|1))
	f.Add(uint8(5), append(slices.Clone(fill), 0, 3))
	// N = 300, the break-even: runs of 32 move components 0-255, then 255 on
	// by 2, 5 or 6 components. 256 moved is 10 + 64 elements against 75, sparse;
	// 257 is 10 + 65, no smaller, dense, as are 260 (the last that fits 65
	// elements) and 261.
	even := []byte{0, 0}
	for c := 0; c < 256; c += 32 {
		even = append(even, byte(c), 31<<3|1)
	}
	for _, run := range []byte{2, 5, 6} {
		f.Add(uint8(5), append(slices.Clone(even), 255, (run-1)<<3|1))
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
			sparses int64
			prevKey = noDelta
		)
		for i := 0; i+1 < len(data); i += 2 {
			step := steps[int(data[i+1]&7)%len(steps)]
			for k, run := 0, 1+int(data[i+1]>>3); k < run; k++ {
				clk[(int(data[i])+k)%n] += step
			}
			curKey := oracle.key
			wantKey, wantSparse, e := oracle.store(clk)
			note := notes.at(appendNote(&notes, &ar, int32(len(inputs)+1), clk))
			if note.index() != int32(len(inputs)+1) {
				t.Fatalf("note %d reads back as index %d", len(inputs)+1, note.index())
			}
			if (note.delta == noDelta) != wantKey || note.sparse() != wantSparse {
				t.Fatalf("note %d: keyframe = %v, sparse = %v, want %v, %v (clock %v over keyframe %v)", note.index(), note.delta == noDelta, note.sparse(), wantKey, wantSparse, clk, curKey)
			}
			if !wantKey && note.key != prevKey {
				t.Fatalf("note %d: delta frame over the keyframe at %d, current keyframe at %d", note.index(), note.key, prevKey)
			}
			prevKey = note.key
			elems += e
			if wantSparse {
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
			full := vecs.full(note, n)
			for q := range want {
				if c := vecs.component(note, model.ProcessID(q), n); c != want[q] || full[q] != want[q] {
					t.Fatalf("note %d (sparse %v) component %d: component() = %d, full() = %d, input %d", note.index(), note.sparse(), q, c, full[q], want[q])
				}
			}
		}
		// A frame that did not fit, or was stored sparse, gives its bytes back,
		// zeroed: the tallies count only what notes hold, both forms, and the
		// next carve is clean.
		st := ar.stats
		if st.Keyframes+st.DeltaFrames != int64(len(inputs)) || st.SparseFrames != sparses || st.VectorBytes != 4*elems {
			t.Fatalf("tallies %+v for %d notes of %d components, %d of them sparse, %d elements", st, len(inputs), n, sparses, elems)
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
// one op: a receive that first steps a run of the other members' components by
// 0, 1, 255, 256 or 70000; a unary event under a new epoch over the same
// members; a run of sends and unary events ("share"); or a noted cluster
// receive.
//
// A cell must name its predecessor's frame, and carve nothing, exactly when
// its event is a send or unary, the process's previous event was a projection
// and the epoch is that projection's. Any other projection must start a
// keyframe exactly when it is the process's first, its epoch changed — every
// offset being small does not excuse it, the members could differ — or some
// component other than the own exceeds the current keyframe by more than 255:
// the own component is the event's index, is not stored, and never re-keys. A
// keyframe's own frame lies right behind its elements, and a frame must name
// the current keyframe. The epoch is the keyframe's, not the cell's: every
// projection, shared cells and a unary event under a new epoch over the same
// members among them, must read the epoch it was stamped under through its
// frame's keyframe, at once and after all later events were carved. Every
// event, re-read after all later ones were carved, must show the clock it was
// stamped with — the own component included, which for a shared cell only the
// slot can say.
func FuzzProjFrameRoundTrip(f *testing.F) {
	sizes := [...]int{1, 2, 3, 4, 5, 13, 254, 255, 300}
	steps := [...]int32{0, 1, 255, 256, 70000}
	const (
		newEpoch = 5 + iota // op codes above the steps
		share
		noted
	)
	// (start member, run length<<3 | op): one seed per op, then mixes.
	for sel := range sizes {
		for op := 0; op <= noted; op++ {
			f.Add(uint8(sel), []byte{0, byte(op), 1, byte(op), 2, byte(31<<3 | op), 0, byte(op)})
		}
		// An offset of exactly 255, then of 256; an epoch change among small steps.
		f.Add(uint8(sel), []byte{0, 0, 0, 2, 0, 1, 0, 1, 0, newEpoch, 0, 1, 7, 31<<3 | 1, 0, 0, 4, 4, 4, 2, 4, 1})
		// A share after a keyframe and after a frame; none after a noted cluster
		// receive (a frame) nor across an epoch change (a keyframe), and shares
		// again behind each.
		f.Add(uint8(sel), []byte{0, 1, 0, share, 1, 1, 0, 2<<3 | share, 0, noted, 0, share, 0, share, 0, newEpoch, 0, share})
	}
	// N = 4: a 7-element keyframe and 124 two-element frames leave the first
	// chunk's last element unused, so the 125th frame is the first thing in a
	// chunk allocated for it.
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
	f.Add(uint8(6), []byte{0, 1, 0, 3<<3 | share, 3, 1, 0, share})
	// N = 300: the first keyframe's allocation has room for one more frame; the
	// next starts a fresh chunk, and the step of 256 makes it the frame that
	// does not fit, so the un-carve empties that chunk again and the new
	// keyframe is the first thing in it.
	f.Add(uint8(8), []byte{0, 1, 0, 1, 0, 3})
	// N = 13: 320 shared cells carry the own component 321 past the keyframe's,
	// and the receive behind them is a frame all the same.
	f.Add(uint8(5), []byte{0, 1, 0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share,
		0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share, 0, 31<<3 | share, 1, 1, 0, share})
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
			curKey []int32     // the oracle's copy of the current keyframe
			live   bool        // the oracle's: the previous event was a projection
			lastEp uint32      // and under this epoch
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
				if key.live || key.last != prev.last {
					t.Fatalf("%v: a noted cluster receive left the process's projection state at %+v, was %+v", e.ID, *key, prev)
				}
				live = false
				inputs = append(inputs, Timestamp{ID: e.ID, Full: slices.Clone(clk)})
				return
			}
			want := clk.ProjectInto(make([]int32, n), members)
			inputs = append(inputs, Timestamp{ID: e.ID, Cluster: table[ep], Proj: want})
			if got := ar.chunks.epoch(c.vec()); got != ep {
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
			wantKey := curKey == nil || prev.ep != ep
			for k := range want {
				wantKey = wantKey || k != ownPos && want[k]-curKey[k] > 255
			}
			header := uint32(ar.chunks.at(c.vec()))
			if isKey := header+uint32(n) == c.vec(); isKey != wantKey {
				t.Fatalf("%v: keyframe = %v, want %v (epoch %d, projection %v over the keyframe %v of epoch %d)", e.ID, isKey, wantKey, ep, want, curKey, prev.ep)
			}
			if wantKey {
				curKey = want
			} else if header != prev.at {
				t.Fatalf("%v: frame over the keyframe at %d, current keyframe at %d", e.ID, header, prev.at)
			}
			if *key != (projKey{at: header, ep: ep, last: c.vec(), live: true}) {
				t.Fatalf("%v: the process's projection state is %+v, the frame at %d names %d under epoch %d", e.ID, *key, c.vec(), header, ep)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			run := 1 + int(data[i+1]>>3)
			switch op := int(data[i+1] & 7); op {
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
			off := pipe.cols[own].get(want.ID.Index).vec()
			if want.Cluster != nil && table[vecs.epoch(off)] != want.Cluster {
				t.Fatalf("%v: its keyframe reads back epoch %d, stamped under %v", want.ID, vecs.epoch(off), want.Cluster)
			}
			for k := range want.Proj {
				if c := vecs.projAt(off, k); k != ownPos && c != want.Proj[k] {
					t.Fatalf("%v component %d: projAt() = %d, stamped %d", want.ID, k, c, want.Proj[k])
				}
			}
		}
		// A frame that did not fit gives its elements back, zeroed: the tallies
		// count only what cells and notes name, the notes' in either form, and
		// the next carve is clean.
		var (
			notes             crOracle
			crElems, crSparse int64
		)
		for _, in := range inputs {
			if in.Full != nil {
				_, sparse, e := notes.store(in.Full)
				crElems += e
				if sparse {
					crSparse++
				}
			}
		}
		st := ar.stats
		w := int64(packedWords(n))
		if st.ProjKeyframes+st.ProjFrames+st.ProjShared+st.Keyframes+st.DeltaFrames != int64(len(inputs)) || st.SparseFrames != crSparse ||
			st.VectorBytes != 4*(st.ProjKeyframes*(int64(n)+2+w)+st.ProjFrames*(1+w)+crElems) {
			t.Fatalf("tallies %+v for %d events over %d members of %d processes, %d sparse notes", st, len(inputs), n, numProcs, crSparse)
		}
		_, fresh := ar.carve(n)
		for k, v := range fresh {
			if v != 0 {
				t.Fatalf("carve after %d events: element %d = %d, want zeroed", len(inputs), k, v)
			}
		}
	})
}
