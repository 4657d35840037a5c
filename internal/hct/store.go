package hct

import (
	"sync/atomic"

	"repro/internal/model"
)

// This file is the columnar timestamp store: dense per-process append-only
// columns replacing the map[EventID]*Timestamp of earlier revisions, plus
// the epoch-publication machinery that lets precedence queries run with no
// lock at all against a concurrent ingester.
//
// # Layout
//
// Events of process p live in column p at slot Index-1 — the event model
// guarantees per-process indexes are dense and 1-based, and the central
// Fidge/Mattern computation finalizes each process's events strictly in
// index order (fm.ErrSyncInterleaved forbids the one stream shape that
// could reorder finalization). A timestamp lookup is therefore two array
// indexes: cols[p].cells[idx-1]. Projection vectors are carved out of a
// shared chunked arena instead of one make per event, so the steady-state
// ingest path performs no per-event allocation.
//
// # Publication protocol (one writer per column, many readers)
//
// Each column is written only by the lane that owns its process (lane.stamp
// in pipeline.go); queries may run concurrently with the writer. Each column
// publishes with two atomics:
//
//   - hdr is the backing array, stored with len == cap. The writer
//     re-stores it only when append reallocates; published cells are
//     immutable, and a reallocation copies them, so a reader holding a
//     stale header still sees correct data for every published slot.
//   - wm is the watermark: the count of published cells. The writer's
//     order per finalized event is cell write → (header store if
//     reallocated) → CR-note publication → wm store. The wm store is the
//     release edge: a reader that loads wm ≥ i observes slot i-1's
//     contents, the header that can reach it, and every cluster-receive
//     note published before it.
//
// Readers never see a torn cell: slots at or above the loaded watermark
// are simply not theirs to read, and slots below it were fully written
// before the watermark advanced.
//
// Cluster-receive notes get the same treatment in crColumn. Soundness of
// the routed precedence path needs one extra observation: the notes
// consulted for a query about timestamp f are those of some process q with
// index ≤ FM(f)[q]. Those q-events are causal predecessors of f, so any
// valid delivery order finalized them before f, and their lanes published
// them before f's lane could learn of them (put-after-publish, pipeline.go)
// — loading f's watermark therefore acquires every note the query
// can touch. Notes published after f's cell have indexes above the bound
// and are skipped by the binary search, so late reads are harmless.

// tsColumn is one process's timestamp column. Deliberately NOT padded to a
// cache line: under sharded ingest adjacent columns can belong to different
// writer lanes, but the shard map is block-contiguous (or cluster-packed,
// which keeps hot neighbours together), so cross-lane line sharing is
// confined to shard boundaries — while padding every column to 64 B was
// measured to cost ~25% of single-thread query throughput by spreading the
// watermarks CaptureWatermark and precedesAt sweep over.
type tsColumn struct {
	cells []Timestamp                 // writer-private; len = appended count
	hdr   atomic.Pointer[[]Timestamp] // published backing array (len == cap)
	wm    atomic.Int32                // published cell count
}

// append places t in the next slot and returns its address. Writer only.
// The new cell is invisible to readers until publish.
func (c *tsColumn) append(t Timestamp) *Timestamp {
	oldCap := cap(c.cells)
	c.cells = append(c.cells, t)
	if cap(c.cells) != oldCap {
		h := c.cells[:cap(c.cells)]
		c.hdr.Store(&h)
	}
	return &c.cells[len(c.cells)-1]
}

// publish releases every appended cell to readers.
func (c *tsColumn) publish() { c.wm.Store(int32(len(c.cells))) }

// get returns the cell for 1-based event index idx if published, else nil.
func (c *tsColumn) get(idx model.EventIndex) *Timestamp {
	return c.getAt(idx, c.wm.Load())
}

// getAt is get against a previously captured watermark.
func (c *tsColumn) getAt(idx model.EventIndex, wm int32) *Timestamp {
	if idx < 1 || int32(idx) > wm {
		return nil
	}
	return &(*c.hdr.Load())[idx-1]
}

// crColumn is one process's noted-cluster-receive column, sorted by event
// index (notes are appended in delivery order).
type crColumn struct {
	notes []crNote
	hdr   atomic.Pointer[[]crNote]
	wm    atomic.Int32
}

// append stores a note; invisible to readers until publish. Writer only.
func (c *crColumn) append(n crNote) {
	oldCap := cap(c.notes)
	c.notes = append(c.notes, n)
	if cap(c.notes) != oldCap {
		h := c.notes[:cap(c.notes)]
		c.hdr.Store(&h)
	}
}

// publish releases every appended note to readers.
func (c *crColumn) publish() { c.wm.Store(int32(len(c.notes))) }

// published returns the immutable published prefix of the column.
func (c *crColumn) published() []crNote {
	wm := c.wm.Load()
	if wm == 0 {
		return nil
	}
	return (*c.hdr.Load())[:wm]
}

// arena bulk-allocates the projection vectors of non-CR timestamps.
// Chunks are written once by the owning lane and referenced
// forever by the cells whose Proj fields alias into them; carve hands out
// full-capacity subslices so no two projections can ever overlap through
// append. Chunk capacity grows geometrically so small stores stay small
// while big stores amortize to one allocation per ~64 Ki elements.
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
