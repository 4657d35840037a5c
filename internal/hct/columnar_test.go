package hct

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestColumnarDifferentialCorpus is the container-equivalence battery for
// the columnar store: across the whole evaluation corpus and a maxCS sweep
// spanning the paper's 2..50 range, the column-backed timestamper must
// (a) hand back, for every event, a timestamp identical to the one the
// ingest path produced — the map-store semantics of earlier revisions,
// rebuilt in-test as an EventID-keyed reference map;
// (b) report a closed-form StorageInts equal to the per-timestamp walk the
// map store used to perform;
// (c) answer precedence queries identically to the Fidge/Mattern oracle —
// the full event-pair matrix on small computations, dense samples on big
// ones; and
// (d) hold, for every event, exactly the oracle's vector: Full == FM(e) for
// noted cluster receives, Proj == FM(e) projected on Cluster.Members
// otherwise. The timestamper is the one-lane pipeline, which computes its own
// clocks, so this is what ties the stamping core to package fm.
func TestColumnarDifferentialCorpus(t *testing.T) {
	specs := workload.Corpus()
	maxCSs := []int{2, 3, 5, 8, 13, 21, 34, 50}
	if testing.Short() {
		maxCSs = []int{2, 13, 50}
	}
	const fixedVector = 300
	for i, spec := range specs {
		if testing.Short() && i%5 != 0 {
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			stamped, err := fm.StampAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			clock := make(map[model.EventID]vclock.Clock, len(stamped))
			for _, st := range stamped {
				clock[st.Event.ID] = st.Clock
			}
			r := rand.New(rand.NewSource(0xC07 + int64(i)))

			for _, maxCS := range maxCSs {
				cfg := Config{MaxClusterSize: maxCS}
				switch i % 3 {
				case 0:
					cfg.Decider = strategy.NewMergeOnFirst()
				case 1:
					cfg.Decider = strategy.NewMergeOnNth(5)
				default:
					groups := strategy.StaticGreedy(commgraph.FromTrace(tr), maxCS)
					part, err := cluster.NewFromGroups(tr.NumProcs, groups)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Partition = part
				}
				ts, err := NewTimestamper(tr.NumProcs, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Ingest event by event, mirroring every timestamp into the
				// reference map as it is finalized (a sync pair with its
				// second half).
				ref := make(map[model.EventID]Timestamp, len(tr.Events))
				for _, e := range tr.Events {
					if err := ts.Ingest(e); err != nil {
						t.Fatalf("maxCS=%d: Ingest(%v): %v", maxCS, e.ID, err)
					}
					ids := []model.EventID{e.ID}
					if e.Kind == model.Sync {
						ids = append(ids, e.Partner)
					}
					for _, id := range ids {
						if st, ok := ts.Timestamp(id); ok {
							ref[id] = st
						}
					}
				}
				if len(ref) != len(tr.Events) {
					t.Fatalf("maxCS=%d: %d timestamps for %d events", maxCS, len(ref), len(tr.Events))
				}

				// (a)+(b): the columns must resolve every event to the same
				// timestamp the map held, and the O(1) StorageInts must equal
				// the walk over them.
				var walked int64
				for id, want := range ref {
					got, ok := ts.Timestamp(id)
					if !ok {
						t.Fatalf("maxCS=%d: Timestamp(%v) missing", maxCS, id)
					}
					if got.ID != want.ID || got.Kind != want.Kind ||
						got.Cluster != want.Cluster ||
						!vclock.Clock(got.Proj).Equal(vclock.Clock(want.Proj)) ||
						!got.Full.Equal(want.Full) {
						t.Fatalf("maxCS=%d: Timestamp(%v) = %v, ingest returned %v", maxCS, id, got, want)
					}
					walked += int64(want.StorageInts(fixedVector, maxCS))

					// (d): vector equality with the oracle.
					if got.Full != nil {
						if !got.Full.Equal(clock[id]) {
							t.Fatalf("maxCS=%d: %v Full = %v, Fidge/Mattern %v", maxCS, id, got.Full, clock[id])
						}
					} else if proj := clock[id].Project(got.Cluster.Members); !vclock.Clock(got.Proj).Equal(vclock.Clock(proj)) {
						t.Fatalf("maxCS=%d: %v Proj = %v over %v, Fidge/Mattern projects to %v", maxCS, id, got.Proj, got.Cluster, proj)
					}
				}
				if got := ts.StorageInts(fixedVector); got != walked {
					t.Fatalf("maxCS=%d: StorageInts closed form %d, walk %d", maxCS, got, walked)
				}

				// (c): precedence vs the Fidge/Mattern oracle.
				check := func(e, f model.EventID) {
					want := fm.Precedes(e, clock[e], f, clock[f])
					got, err := ts.Precedes(e, f)
					if err != nil {
						t.Fatalf("maxCS=%d: Precedes(%v,%v): %v", maxCS, e, f, err)
					}
					if got != want {
						t.Fatalf("maxCS=%d: Precedes(%v,%v) = %v, Fidge/Mattern %v", maxCS, e, f, got, want)
					}
				}
				if len(tr.Events) <= 150 {
					for a := range tr.Events {
						for b := range tr.Events {
							check(tr.Events[a].ID, tr.Events[b].ID)
						}
					}
				} else {
					samples := 3000
					if testing.Short() {
						samples = 600
					}
					for k := 0; k < samples; k++ {
						e := tr.Events[r.Intn(len(tr.Events))].ID
						f := tr.Events[r.Intn(len(tr.Events))].ID
						check(e, f)
						// e == f: the engine defines an event as not
						// concurrent with itself; the raw vector test says
						// otherwise, so compare only distinct pairs.
						if k%4 == 0 && e != f {
							want := fm.Concurrent(e, clock[e], f, clock[f])
							got, err := ts.Concurrent(e, f)
							if err != nil {
								t.Fatalf("maxCS=%d: Concurrent(%v,%v): %v", maxCS, e, f, err)
							}
							if got != want {
								t.Fatalf("maxCS=%d: Concurrent(%v,%v) = %v, Fidge/Mattern %v", maxCS, e, f, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestColumnPublishedCellsStableAcrossGrowth pins the paging invariant of
// the publication protocol: cell addresses and a directory header obtained
// early must keep reading correct, immutable cells while the column adds
// pages — a column never moves a published cell, and a stale directory still
// reaches every slot below the watermark it was loaded under.
func TestColumnPublishedCellsStableAcrossGrowth(t *testing.T) {
	const total = 17*pageCells + 5 // 17 page additions after the first
	tag := func(i int) uint32 { return uint32(i) }
	var c tsColumn
	var early []*cell
	var earlyDir []*[pageCells]cell
	const earlyWM = pageCells + 3 // captured on the second page
	for i := 1; i <= total; i++ {
		c.append(newCell(false, model.Send, tag(i)))
		c.publish()
		if i <= 8 || i == pageCells || i == pageCells+1 {
			early = append(early, c.get(model.EventIndex(i)))
		}
		if i == earlyWM {
			earlyDir = *c.dir.Load()
		}
	}
	if got, want := len(*c.dir.Load()), total/pageCells+1; got != want || want < 17 {
		t.Fatalf("directory lists %d pages, want %d", got, want)
	}
	for _, p := range early {
		if got := c.get(model.EventIndex(p.vec())); got != p {
			t.Fatalf("early cell %v moved or mutated: %p, now %p", p.vec(), p, got)
		}
	}
	// The stale directory reaches every slot below its watermark, at the
	// same addresses the current directory resolves them to.
	if len(earlyDir) != 2 {
		t.Fatalf("early directory lists %d pages, want 2", len(earlyDir))
	}
	for i := int32(0); i < earlyWM; i++ {
		via := &earlyDir[i>>pageShift][i&pageMask]
		if via != c.at(i) || via.vec() != tag(int(i)+1) {
			t.Fatalf("stale directory slot %d = %v at %p, current %p", i, via.vec(), via, c.at(i))
		}
	}
	for i := 1; i <= total; i++ {
		got := c.get(model.EventIndex(i))
		if got == nil || got.vec() != tag(i) || got.kind() != model.Send || got.noted() {
			t.Fatalf("get(%d) = %+v", i, got)
		}
	}
	if c.get(0) != nil || c.get(total+1) != nil {
		t.Fatal("out-of-range lookups must miss")
	}
	if c.getAt(earlyWM+1, earlyWM) != nil {
		t.Fatal("lookup above a captured watermark must miss")
	}
	if got := c.getAt(earlyWM, earlyWM); got == nil || got.vec() != tag(earlyWM) {
		t.Fatalf("getAt(wm, wm) = %+v", got)
	}
	var empty tsColumn
	if empty.get(1) != nil || empty.pages != nil {
		t.Fatal("an untouched column must hold no page and miss every lookup")
	}
}

// TestOffsetsResolveThroughStaleDirectories pins the two publication edges a
// cell's offsets resolve through, the way the test above pins the page
// directory: a reader that loaded the arena's chunk list and the epoch table
// right after a watermark, and kept them while the lane moved on through 17
// and more chunks and the planner appended 17 and more epochs, still resolves
// every cell below that watermark — projections that started a keyframe,
// projections framed over an earlier one and cells that name their
// predecessor's frame, cluster receives as keyframes, delta and nibble frames — to
// what the store held when the watermark was taken, through both readers of
// each form, a projection's own component coming from the slot. A
// projection's epoch is resolved through the stale chunk list alone — the
// element before its keyframe — and names an entry of the stale table. Neither
// directory ever rewrites an entry a published cell names.
func TestOffsetsResolveThroughStaleDirectories(t *testing.T) {
	tr := workload.BroadcastThenRing(64, 1400)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	var (
		w          Watermark
		chunks     chunkDir        // the lone lane's chunk list, as published when w was captured
		epochs     []*cluster.Info // the epoch table, likewise
		mergesThen int
		early      []Timestamp // deep copies of every view below w
	)
	for _, e := range tr.Events {
		if err := ts.Ingest(e); err != nil {
			t.Fatal(err)
		}
		if w != nil || ts.Merges() < 30 || ts.StoreStats().DeltaFrames == 0 {
			continue
		}
		w = ts.CaptureWatermark(nil)
		chunks, epochs, mergesThen = ts.vectors(0), *ts.epochs.Load(), ts.Merges()
		for p, n := range w {
			for i := model.EventIndex(1); i <= model.EventIndex(n); i++ {
				v, ok := ts.At(w).Timestamp(model.EventID{Process: model.ProcessID(p), Index: i})
				if !ok {
					t.Fatalf("p%d:%d misses below its watermark %d", p, i, n)
				}
				v.Proj, v.Full = slices.Clone(v.Proj), slices.Clone(v.Full)
				early = append(early, v)
			}
		}
	}
	if w == nil {
		t.Fatal("the trace never reached 30 merges and a delta frame")
	}
	if added := len(ts.vectors(0)) - len(chunks); added < 17 {
		t.Fatalf("%d chunks added after the capture, want 17 or more", added)
	}
	if merged, added := ts.Merges()-mergesThen, len(*ts.epochs.Load())-len(epochs); merged < 17 || added < 17 {
		t.Fatalf("%d merges and %d epochs after the capture, want 17 or more of each", merged, added)
	}
	var projKeys, projFrames, projNibbles, projShared, keyframes, deltas, nibbles int
	for _, want := range early {
		p := want.ID.Process
		c := ts.At(w).cell(want.ID)
		if off := c.vec(); !c.noted() {
			vp := chunks.proj(off)
			ep := vp.ep
			if ep == 0 || int(ep) >= len(epochs) {
				t.Fatalf("%v: the stale chunk list reads epoch %d, the stale table holds %d", want.ID, ep, len(epochs))
			}
			cl := epochs[ep]
			n := len(cl.Members)
			// A shared cell names what the projection before it names; a
			// keyframe's own frame lies right behind its elements; a nibble
			// frame's header is its anchor's offset, marked.
			if prev := ts.At(w).cell(model.EventID{Process: p, Index: want.ID.Index - 1}); prev != nil && !prev.noted() && prev.vec() == off {
				projShared++
			} else if h := uint32(chunks.at(off)); h&projNibbleBit != 0 {
				projNibbles++
			} else if h+uint32(n) == off {
				projKeys++
			} else {
				projFrames++
			}
			own, _ := cl.PosOf(int32(p))
			other := (own + 1) % n
			got := vp.decode(n)
			got[own] = int32(want.ID.Index)
			if cl != want.Cluster || !slices.Equal(got, want.Proj) || n > 1 && vp.member(other) != want.Proj[other] {
				t.Fatalf("%v through the stale directories: %v (component %d: %d) over %v, was %v", want.ID, got, other, vp.member(other), cl, want)
			}
			continue
		}
		note := ts.crs[p].at(int32(c.vec()))
		switch form := formOf(note); {
		case form.key:
			keyframes++
		case form.nibble:
			nibbles++
		default:
			deltas++
		}
		if full := chunks.full(note, tr.NumProcs, nil); !slices.Equal(full, want.Full) || chunks.component(note, p, tr.NumProcs) != want.Full[p] {
			t.Fatalf("%v through the stale chunk list: %v, was %v", want.ID, full, want)
		}
	}
	if projKeys == 0 || projFrames == 0 || projNibbles == 0 || projShared == 0 || keyframes == 0 || deltas == 0 || nibbles == 0 {
		t.Fatalf("%d projection keyframes, %d byte and %d nibble frames and %d shared cells, %d cluster-receive keyframes, %d delta and %d nibble frames below the capture: need all seven",
			projKeys, projFrames, projNibbles, projShared, keyframes, deltas, nibbles)
	}
	t.Logf("%d + %d + %d + %d projection keyframes, byte and nibble frames and shared cells, %d + %d + %d cluster-receive keyframes, delta and nibble frames re-read through a chunk list %d chunks and an epoch table %d epochs behind",
		projKeys, projFrames, projNibbles, projShared, keyframes, deltas, nibbles, len(ts.vectors(0))-len(chunks), len(*ts.epochs.Load())-len(epochs))
}

// TestOwnComponentFromSlot pins the readers' one trap. A send or a unary event
// carves nothing — its cell names the frame of the projection before it — and no
// frame stores its process's own component, so a frame read as it lies is stale
// in exactly that position. Over a ring, an RPC trace with synchronous pairs and
// a web tier, at 1, 2 and 4 lanes: every event's view is the Fidge/Mattern
// vector, projected, with the own position the event's index, over the cluster
// the planner handed it — a shared cell's included, whose epoch the frame it
// shares carries, so a frame shared across an epoch change shows; precedence within
// a process, and from outside the cluster into a shared cell — the routed path,
// which bounds the search over f's own notes by that component — agrees with
// the oracle; and which cells share, a function of the delivery order and the
// cluster decisions alone, is the same at every lane count.
func TestOwnComponentFromSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *model.Trace
	}{
		{"ring", workload.Ring(64, 30, false)},
		{"rpc", workload.RPCBusiness(30, 3, 3, 800, 0.05, 301)},
		{"webtier", workload.WebTier(55, 5, 5, 2, 1200, 201)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			stamped, err := fm.StampAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			clock := make(map[model.EventID]vclock.Clock, len(stamped))
			for _, st := range stamped {
				clock[st.Event.ID] = st.Clock
			}
			if syncs := slices.ContainsFunc(tr.Events, func(e model.Event) bool { return e.Kind == model.Sync }); syncs != (tc.name == "rpc") {
				t.Fatalf("trace has synchronous pairs: %v", syncs)
			}
			r := rand.New(rand.NewSource(0x0517))
			var sharedAtOne []model.EventID
			for _, lanes := range []int{1, 2, 4} {
				pipe, err := NewPipeline(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}, PipelineOptions{Shards: lanes})
				if err != nil {
					t.Fatal(err)
				}
				defer pipe.Close()
				// The epoch each event is stamped under, nil for a noted
				// cluster receive: what the plan stage's one hook decides.
				handed := make(map[model.EventID]*cluster.Info, len(tr.Events))
				decide := pipe.decide
				pipe.decide = func(e model.Event) *cluster.Info {
					cl := decide(e)
					handed[e.ID] = cl
					return cl
				}
				for lo := 0; lo < len(tr.Events); lo += 256 {
					if err := pipe.DispatchAsync(tr.Events[lo:min(lo+256, len(tr.Events))], nil); err != nil {
						t.Fatal(err)
					}
				}
				pipe.Barrier()
				pipe.planMu.Lock() // the hook wrote handed under it
				epochOf := maps.Clone(handed)
				pipe.planMu.Unlock()

				var shared []model.EventID
				for _, e := range tr.Events {
					got, ok := pipe.Timestamp(e.ID)
					if !ok {
						t.Fatalf("lanes=%d: %v not stamped", lanes, e.ID)
					}
					if got.Cluster != epochOf[e.ID] {
						t.Fatalf("lanes=%d: %v (%v) reads back over %v, stamped over %v", lanes, e.ID, e.Kind, got.Cluster, epochOf[e.ID])
					}
					if got.Full != nil {
						if !got.Full.Equal(clock[e.ID]) {
							t.Fatalf("lanes=%d: %v Full = %v, Fidge/Mattern %v", lanes, e.ID, got.Full, clock[e.ID])
						}
						continue
					}
					own, _ := got.Cluster.PosOf(int32(e.ID.Process))
					if want := clock[e.ID].Project(got.Cluster.Members); !slices.Equal(got.Proj, want) || got.Proj[own] != int32(e.ID.Index) {
						t.Fatalf("lanes=%d: %v Proj = %v over %v (own position %d), Fidge/Mattern projects to %v", lanes, e.ID, got.Proj, got.Cluster, own, want)
					}
					c := pipe.Live().cell(e.ID)
					if prev := pipe.Live().cell(model.EventID{Process: e.ID.Process, Index: e.ID.Index - 1}); prev != nil && !prev.noted() && prev.vec() == c.vec() {
						if e.Kind != model.Unary && e.Kind != model.Send {
							t.Fatalf("lanes=%d: %v (%v) shares the frame of its predecessor", lanes, e.ID, e.Kind)
						}
						shared = append(shared, e.ID)
					}
				}
				if st := pipe.StoreStats(); len(shared) == 0 || st.ProjShared != int64(len(shared)) ||
					st.ProjKeyframes+st.ProjFrames+st.ProjNibbleFrames+st.ProjShared+st.Keyframes+st.DeltaFrames+st.NibbleFrames != int64(len(tr.Events)) {
					t.Fatalf("lanes=%d: %d cells name their predecessor's frame, tallies %+v for %d events", lanes, len(shared), st, len(tr.Events))
				}
				if lanes == 1 {
					sharedAtOne = shared
				} else if !slices.Equal(shared, sharedAtOne) {
					t.Fatalf("lanes=%d: %d shared cells, %d at one lane, or not the same ones", lanes, len(shared), len(sharedAtOne))
				}

				check := func(e, f model.EventID) {
					t.Helper()
					got, err := pipe.Precedes(e, f)
					if want := fm.Precedes(e, clock[e], f, clock[f]); err != nil || got != want {
						t.Fatalf("lanes=%d: Precedes(%v,%v) = %v, %v; Fidge/Mattern %v", lanes, e, f, got, err, want)
					}
				}
				// Within a process: neighbours, and random pairs either way round.
				for _, e := range tr.Events {
					next := model.EventID{Process: e.ID.Process, Index: e.ID.Index + 1}
					if _, ok := clock[next]; ok {
						check(e.ID, next)
						check(next, e.ID)
					}
					other := model.EventID{Process: e.ID.Process, Index: 1 + model.EventIndex(r.Intn(int(e.ID.Index)+3))}
					if _, ok := clock[other]; ok {
						check(e.ID, other)
					}
				}
				// Into shared cells from every process: those outside f's cluster
				// route through the notes.
				_, routed0 := pipe.QueryPathCounts()
				for k := 0; k < 400; k++ {
					f := shared[r.Intn(len(shared))]
					for p := 0; p < tr.NumProcs; p++ {
						e := model.EventID{Process: model.ProcessID(p), Index: 1 + model.EventIndex(r.Intn(int(f.Index)+3))}
						if _, ok := clock[e]; ok {
							check(e, f)
						}
					}
				}
				if _, routed := pipe.QueryPathCounts(); routed == routed0 {
					t.Fatalf("lanes=%d: no query into a shared cell took the routed path", lanes)
				}
			}
		})
	}
}

// TestStoredFormSizes pins the two numbers the B/event budget (DESIGN §10)
// is built on, and StoreStats reports by: a cell is 4 bytes and a
// cluster-receive note 12.
func TestStoredFormSizes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     uintptr
		reported int64 // what StoreStats multiplies by
		want     uintptr
	}{
		{"cell", reflect.TypeOf(cell(0)).Size(), cellBytes, 4},
		{"crNote", reflect.TypeOf(crNote{}).Size(), noteBytes, 12},
	} {
		if tc.size != tc.want || uintptr(tc.reported) != tc.want {
			t.Errorf("%s is %d bytes and reported as %d, want %d", tc.name, tc.size, tc.reported, tc.want)
		}
	}
}

// TestStoredFormPointerFree walks the stored form and fails on anything the
// garbage collector would have to trace: a [pageCells]cell or [pageCells]crNote
// with no pointer-bearing field anywhere inside is allocated as a no-scan
// span, and holds nothing that stops a sealed page from being read at another
// address.
func TestStoredFormPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v (%v): the stored form must hold no pointer", path, typ.Kind(), typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("cell", reflect.TypeOf(cell(0)))
	walk("crNote", reflect.TypeOf(crNote{}))
}

// TestArenaCarveDisjoint verifies that carved projection vectors can never
// overlap: each has capacity exactly its length, and chunk turnover at every
// size (including requests larger than the chunk) yields disjoint memory.
func TestArenaCarveDisjoint(t *testing.T) {
	var a arena
	r := rand.New(rand.NewSource(7))
	var all [][]int32
	next := int32(1)
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(40)
		if i%97 == 0 {
			n = 1<<arenaMinShift + 50 // force an oversized request early on
		}
		if i == 1500 {
			n = 1<<arenaMaxShift + 50 // and one no single chunk holds
		}
		_, s := a.carve(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("carve(%d): len=%d cap=%d", n, len(s), cap(s))
		}
		for j := range s {
			s[j] = next
			next++
		}
		all = append(all, s)
	}
	next = 1
	for i, s := range all {
		for j, v := range s {
			if v != next {
				t.Fatalf("slice %d[%d] = %d, want %d: carved slices overlap", i, j, v, next)
			}
			next++
		}
	}
	if _, s := a.carve(0); s != nil {
		t.Fatal("carve(0) must be nil")
	}
}
