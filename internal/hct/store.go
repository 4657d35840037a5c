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
// event is a 32-byte cell: a pointer to the first element of its vector, the
// cluster epoch, the partner and the kind. Everything else is implied by
// position: the event ID is (column, slot+1); the vector holds
// len(cluster.Members) elements, or numProcs when cluster is nil — a noted
// cluster receive keeping its full Fidge/Mattern vector. hct.Timestamp is the
// read-time view of a cell, built by value on request (plane.Timestamp);
// the precedence path reads cells and notes directly and builds none.
//
// A column is a directory of pages of pageCells cells each. Pages are
// allocated when the column reaches them (none at construction), are never
// moved or freed, and a column therefore never copies a published cell and
// wastes at most one partial page. Vectors — projections and full vectors
// alike — are carved from the owning lane's chunked arena, so the
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
// Cluster-receive notes are a column of the same kind (16-byte notes: event
// index and vector pointer). Soundness of the routed precedence path needs
// one extra observation: the notes consulted for a query about event f are
// those of some process q with index ≤ FM(f)[q]. Those q-events are causal
// predecessors of f, so any valid delivery order finalized them before f,
// and their lanes published them before f's lane could learn of them
// (put-after-publish, pipeline.go) — loading f's watermark therefore
// acquires every note the query can touch. Notes published after f's cell
// have indexes above the bound and are skipped by the binary search, so late
// reads are harmless.
//
// # Unsafe
//
// A cell or note stores its vector as *int32 rather than []int32: the length
// is implied, and the 16 bytes of len and cap per event were a fifth of the
// store. cell.vector and crNote.full rebuild the slice with unsafe.Slice over
// exactly the elements carved for it; they are the package's only unsafe
// code. The pointer is an ordinary interior pointer into an arena chunk, so
// the garbage collector keeps the chunk alive, and under -race (checkptr)
// every rebuilt slice is checked to lie within one allocation.

// Page geometry: one constant. 256 cells are 8 KiB, so a 300-process store
// idles at most 2.4 MB of partial pages.
const (
	pageShift = 8
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// cell is the stored form of one event's timestamp (see the file comment).
type cell struct {
	vec     *int32        // first element of the projection or full vector
	cluster *cluster.Info // epoch the projection is over; nil = full vector
	partner model.EventID
	kind    model.Kind
}

// vector returns the cell's vector; numProcs is the full-vector length.
func (c *cell) vector(numProcs int) []int32 {
	if c.cluster != nil {
		numProcs = len(c.cluster.Members)
	}
	return unsafe.Slice(c.vec, numProcs)
}

// crNote records a noted (non-merged) cluster receive of one process: the
// paper's "greatest cluster receive within this process at this point".
// Notes are appended in event-index order, so the column is sorted. vec is
// the same carved full vector the event's cell points at.
type crNote struct {
	index int32
	vec   *int32
}

// full returns the note's Fidge/Mattern vector.
func (n *crNote) full(numProcs int) []int32 { return unsafe.Slice(n.vec, numProcs) }

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
// one. Writer only. The new slot is invisible to readers until publish.
func (c *column[T]) append(v T) {
	k := int(c.n >> pageShift)
	grew := k == len(c.pages)
	if grew {
		c.pages = append(c.pages, new([pageCells]T))
	}
	c.pages[k][c.n&pageMask] = v
	if grew {
		d := c.pages
		c.dir.Store(&d)
	}
	c.n++
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
// full vectors of noted cluster receives. Chunks are written once by the
// owning lane and referenced forever by the cells and notes pointing into
// them; carve hands out full-capacity subslices so no two vectors can ever
// overlap through append. Chunk capacity grows geometrically so small stores
// stay small while big stores amortize to one allocation per ~64 Ki elements.
type arena struct {
	chunk []int32 // current chunk; len = carved prefix
	next  int     // capacity of the next chunk
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
	return a.chunk[off : off+n : off+n]
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
