package hct

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/model"
)

// This file is the columnar timestamp store: per-process append-only columns
// of compact cells held in fixed-size pages, the arena their vectors are
// carved from, and the epoch-publication machinery that lets precedence
// queries run with no lock at all against a concurrent ingester.
//
// # Layout
//
// Events of process p live in column p at slot Index-1 — the event model
// guarantees per-process indexes are dense and 1-based, and the lanes
// finalize each process's events strictly in index order. What is stored per
// event is a 32-byte cell: a pointer to its vector, the cluster epoch, the
// partner and the kind. Everything else is implied by position: the event ID
// is (column, slot+1); for a projection the pointer is the first of
// len(cluster.Members) elements; when cluster is nil the event is a noted
// cluster receive and the pointer is its note. hct.Timestamp is the read-time
// view of a cell, built by value on request (plane.Timestamp); the precedence
// path reads cells and notes directly and builds none.
//
// A noted cluster receive keeps its whole Fidge/Mattern vector, but not as
// numProcs int32s: consecutive cluster receives of one process differ by
// little per component, so a note (24 bytes: event index, keyframe, delta)
// stores the vector as a keyframe — numProcs int32s, an earlier cluster
// receive's vector of the same process — plus numProcs bytes of offsets above
// it. A note whose delta is nil is a keyframe itself. A process keeps its
// keyframe for as long as every component of the new clock is within 255 of
// it and starts a new one otherwise (arena.frame), so the form adapts to the
// traffic with nothing to tune. Component q of a note is key[q] + delta[q]:
// two loads, no chain to walk.
//
// A column is a directory of pages of pageCells cells each. Pages are
// allocated when the column reaches them (none at construction), are never
// moved or freed, and a column therefore never copies a published cell and
// wastes at most one partial page. Vectors — projections, keyframes and delta
// frames alike — are carved from the owning lane's chunked arena, so the
// steady-state ingest path performs no per-event allocation.
//
// # Publication protocol (one writer per column, many readers)
//
// Each column is written only by the lane that owns its process (lane.stamp
// in pipeline.go); queries may run concurrently with the writer. Each column
// publishes with two atomics:
//
//   - dir is the page directory, an immutable slice header over the page
//     pointers. The writer stores a new header only when it adds a page.
//     Pages never move, so a directory that is stale — loaded before later
//     pages were added — still reaches every page it lists, and those pages
//     hold correct data for every published slot.
//   - wm is the watermark: the count of published slots. The writer's order
//     per finalized event is CR-note publication → cell write → (directory
//     store if a page was added) → wm store. The wm store is the release
//     edge: a reader that loads wm ≥ i observes slot i-1's contents, a
//     directory that lists its page, and every cluster-receive note
//     published before it. Readers load wm (or take a captured one) BEFORE
//     loading dir, so the directory they get is never older than the one
//     stored before that watermark.
//
// Readers never see a torn cell: slots at or above the loaded watermark
// are simply not theirs to read, and slots below it were fully written
// before the watermark advanced.
//
// Cluster-receive notes are a column of the same kind, and a cluster
// receive's cell points at its note, which like every slot of a page never
// moves. A delta frame only ever references a keyframe the same writer filled
// before it appended the note, so whatever publishes the note — its own
// column's watermark on the routed path, the cell's on the direct path — has
// published the keyframe and the delta bytes with it.
//
// Soundness of the routed precedence path needs one extra observation: the
// notes consulted for a query about event f are those of some process q with
// index ≤ FM(f)[q]. Those q-events are causal predecessors of f, so any valid
// delivery order finalized them before f, and their lanes published them
// before f's lane could learn of them (put-after-publish, pipeline.go) —
// loading f's watermark therefore acquires every note the query can touch. Notes published after f's cell
// have indexes above the bound and are skipped by the binary search, so late
// reads are harmless.
//
// # Unsafe
//
// A cell stores its vector as one pointer rather than a []int32: the length
// is implied, and the 16 bytes of len and cap per event were a fifth of the
// store. That pointer is an unsafe.Pointer because it has two shapes — *int32
// for a projection, *crNote for a noted cluster receive (cluster == nil) —
// and a note holds its keyframe as *int32 and its delta as *uint8, the latter
// carved out of the same []int32 chunks (arena.frame). All of them are
// ordinary pointers the garbage collector traces: interior pointers into an
// arena chunk or a note page, which keep that allocation alive; no pointer is
// ever stored inside a chunk. The unsafe code is the accessors that give
// these pointers their shape back — cell.proj, cell.note and the two setters,
// crNote.component and crNote.full — and the encoder arena.frame with its
// byte view of carved elements; nothing outside this file imports unsafe.
// Under -race (checkptr) every rebuilt slice is checked to lie within one
// allocation.

// Page geometry: one constant. 256 cells are 8 KiB, so a 300-process store
// idles at most 2.4 MB of partial pages.
const (
	pageShift = 8
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// cell is the stored form of one event's timestamp (see the file comment).
type cell struct {
	vec     unsafe.Pointer // *int32, first element of the projection; *crNote when cluster is nil
	cluster *cluster.Info  // epoch the projection is over; nil = noted cluster receive
	partner model.EventID
	kind    model.Kind
}

// setProj points the cell at its carved projection over c.cluster.Members.
func (c *cell) setProj(v []int32) { c.vec = unsafe.Pointer(&v[0]) }

// setNote points a cluster-receive cell (cluster == nil) at its note.
func (c *cell) setNote(n *crNote) { c.vec = unsafe.Pointer(n) }

// proj returns the projection of a cell whose cluster is not nil.
func (c *cell) proj() []int32 {
	return unsafe.Slice((*int32)(c.vec), len(c.cluster.Members))
}

// note returns the note of a cell whose cluster is nil.
func (c *cell) note() *crNote { return (*crNote)(c.vec) }

// crNote records a noted (non-merged) cluster receive of one process: the
// paper's "greatest cluster receive within this process at this point".
// Notes are appended in event-index order, so the column is sorted. The
// Fidge/Mattern vector is key[q] + delta[q] per component; delta is nil for a
// keyframe, whose vector is key itself.
type crNote struct {
	index int32
	key   *int32 // numProcs elements, shared by the delta frames that follow
	delta *uint8 // numProcs offsets above key, or nil
}

// component returns element q of the note's vector; the caller bounds q to
// [0, numProcs).
func (n *crNote) component(q model.ProcessID) int32 {
	v := *(*int32)(unsafe.Add(unsafe.Pointer(n.key), 4*uintptr(q)))
	if n.delta != nil {
		v += int32(*(*uint8)(unsafe.Add(unsafe.Pointer(n.delta), uintptr(q))))
	}
	return v
}

// full returns the note's Fidge/Mattern vector: the keyframe itself, aliasing
// the arena, or for a delta frame a freshly decoded slice.
func (n *crNote) full(numProcs int) []int32 {
	key := unsafe.Slice(n.key, numProcs)
	if n.delta == nil {
		return key
	}
	v := make([]int32, numProcs)
	for q, d := range unsafe.Slice(n.delta, numProcs) {
		v[q] = key[q] + int32(d)
	}
	return v
}

// column is one process's paged append-only column of cells or notes.
// Deliberately NOT padded to a cache line: under sharded ingest adjacent
// columns can belong to different writer lanes, but the shard map is
// block-contiguous (or cluster-packed, which keeps hot neighbours together),
// so cross-lane line sharing is confined to shard boundaries — while padding
// every column to 64 B was measured to cost ~25% of single-thread query
// throughput by spreading the watermarks CaptureWatermark and precedesAt
// sweep over.
type column[T any] struct {
	pages []*[pageCells]T                 // writer-private directory
	n     int32                           // writer-private appended count
	wm    atomic.Int32                    // published slot count
	dir   atomic.Pointer[[]*[pageCells]T] // published directory
}

type (
	tsColumn = column[cell]
	crColumn = column[crNote]
)

// append places v in the next slot, adding a page when the column reaches
// one, and returns the slot, which never moves. Writer only. The new slot is
// invisible to readers until publish.
func (c *column[T]) append(v T) *T {
	k := int(c.n >> pageShift)
	grew := k == len(c.pages)
	if grew {
		c.pages = append(c.pages, new([pageCells]T))
	}
	slot := &c.pages[k][c.n&pageMask]
	*slot = v
	if grew {
		d := c.pages
		c.dir.Store(&d)
	}
	c.n++
	return slot
}

// last returns the most recently appended slot, or nil. Writer only.
func (c *column[T]) last() *T {
	if c.n == 0 {
		return nil
	}
	i := c.n - 1
	return &c.pages[i>>pageShift][i&pageMask]
}

// publish releases every appended slot to readers.
func (c *column[T]) publish() { c.wm.Store(c.n) }

// at returns 0-based slot i, which must lie below a watermark the caller
// loaded or captured before this call.
func (c *column[T]) at(i int32) *T {
	return &(*c.dir.Load())[i>>pageShift][i&pageMask]
}

// get returns the slot for 1-based event index idx if published, else nil.
func (c *column[T]) get(idx model.EventIndex) *T {
	return c.getAt(idx, c.wm.Load())
}

// getAt is get against a previously captured watermark.
func (c *column[T]) getAt(idx model.EventIndex, wm int32) *T {
	if idx < 1 || int32(idx) > wm {
		return nil
	}
	return c.at(int32(idx) - 1)
}

// arena bulk-allocates the vectors of one lane's cells: projections and the
// keyframes and delta frames of noted cluster receives. Chunks are written
// once by the owning lane and referenced forever by the cells and notes
// pointing into them; carve hands out full-capacity subslices so no two
// vectors can ever overlap through append. Chunk capacity grows geometrically
// so small stores stay small while big stores amortize to one allocation per
// ~64 Ki elements.
type arena struct {
	chunk []int32 // current chunk; len = carved prefix
	next  int     // capacity of the next chunk
	stats StoreStats
}

// StoreStats are the store's physical tallies — what the paper's
// fixed-vector accounting (StorageInts) deliberately does not model.
type StoreStats struct {
	VectorBytes int64 `json:"vector_bytes"`    // carved from the lane arenas: projections, keyframes, delta frames
	Keyframes   int64 `json:"cr_keyframes"`    // noted cluster receives stored as a keyframe
	DeltaFrames int64 `json:"cr_delta_frames"` // noted cluster receives stored as offsets above an earlier keyframe
}

const (
	arenaMinChunk = 1 << 8
	arenaMaxChunk = 1 << 16
)

// carve returns a zeroed slice of n elements with capacity exactly n.
func (a *arena) carve(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(a.chunk)+n > cap(a.chunk) {
		sz := a.next
		if sz < arenaMinChunk {
			sz = arenaMinChunk
		}
		if sz < n {
			sz = n
		}
		a.chunk = make([]int32, 0, sz)
		if sz < arenaMaxChunk {
			a.next = sz * 2
		} else {
			a.next = arenaMaxChunk
		}
	}
	off := len(a.chunk)
	a.chunk = a.chunk[: off+n : cap(a.chunk)]
	a.stats.VectorBytes += 4 * int64(n)
	return a.chunk[off : off+n : off+n]
}

// uncarve takes back w, the most recent carve, zeroed again.
func (a *arena) uncarve(w []int32) {
	clear(w)
	a.chunk = a.chunk[:len(a.chunk)-len(w)]
	a.stats.VectorBytes -= 4 * int64(len(w))
}

// frame stores clk, the clock of the noted cluster receive with event index
// index, and returns its note. key is the process's current keyframe, nil
// before its first cluster receive. The note is a delta frame over key while
// every component of clk is within 255 of it, and a new keyframe otherwise.
//
// The offsets are written in one pass that also ORs them together — nearly
// every frame fits, so filling first and testing once beats a test per
// component — and the bytes, carved as whole elements of the chunk, are taken
// back when the OR says one did not fit. A process's clocks only grow, so an
// offset is never negative; as a uint32 it would fail the test all the same.
func (a *arena) frame(index int32, key *int32, clk []int32) crNote {
	if key != nil {
		base := unsafe.Slice(key, len(clk))
		words := a.carve((len(clk) + 3) / 4)
		d := unsafe.Slice((*uint8)(unsafe.Pointer(&words[0])), len(clk))
		var over uint32
		for q, v := range clk {
			off := uint32(v - base[q])
			over |= off
			d[q] = uint8(off)
		}
		if over <= 255 {
			a.stats.DeltaFrames++
			return crNote{index: index, key: key, delta: &d[0]}
		}
		a.uncarve(words)
	}
	k := a.carve(len(clk))
	copy(k, clk)
	a.stats.Keyframes++
	return crNote{index: index, key: &k[0]}
}

// appendNote stores clk as the next noted cluster receive of the process
// notes belongs to — a delta frame over the process's current keyframe, the
// key of its previous note, or a new keyframe — and publishes the note.
// Writer only; the returned slot never moves.
func appendNote(notes *crColumn, a *arena, index int32, clk []int32) *crNote {
	var key *int32
	if prev := notes.last(); prev != nil {
		key = prev.key
	}
	n := notes.append(a.frame(index, key, clk))
	notes.publish()
	return n
}

// Watermark is a per-process snapshot of published event counts: a cut of
// the store against which a whole batch of queries can be answered
// consistently while ingestion keeps running. Captured watermarks are
// plain data; reusing the backing slice across captures is the caller's
// prerogative (see Monitor.QueryBatch).
type Watermark []int32

// CaptureWatermark snapshots the published event count of every process
// into w (reallocating if too small) and returns it. Safe to call
// concurrently with the writer; the snapshot is monotone per process.
func (ts *plane) CaptureWatermark(w Watermark) Watermark {
	if cap(w) < ts.numProcs {
		w = make(Watermark, ts.numProcs)
	}
	w = w[:ts.numProcs]
	for p := range ts.cols {
		w[p] = ts.cols[p].wm.Load()
	}
	return w
}
