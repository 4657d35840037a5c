package hct

import (
	"math/bits"
	"sync/atomic"

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
// event is an 8-byte cell that holds no address: where its vector is, the
// cluster epoch and the kind. Everything else is implied by position or is
// not the store's: the event ID is (column, slot+1); a communication event's
// partner is part of the event's record, which the daemon's write-ahead log
// keeps, and no read of the store needs it — View.Precedes tells the two
// halves of a synchronous pair apart by their clocks (sync-partners-direct,
// DESIGN.md §10); the epoch is an index into the pipeline's append-only epoch
// table (plane.epochs), whose entry is the immutable *cluster.Info the
// projection is over; the vector is a frame at an element offset into the
// arena of the lane that owns the process. Epoch 0 is no epoch: the event is
// a noted cluster receive and vec is the slot of its note in the process's
// note column. hct.Timestamp is the read-time form of a cell, built by value
// on request (View.Timestamp); the precedence path reads cells, frames and
// notes directly and builds none.
//
// No vector is stored as the ints it stands for. Consecutive events of one
// process differ by little per component — the observation behind the
// Singhal/Kshemkalyani differential scheme the paper sets aside (§2.4) because
// a timestamp there is a chain of differences to walk — so a vector is a
// keyframe, the raw int32s of an earlier vector of the same process, plus one
// byte per component of offsets above it, packed four to an arena element,
// lowest byte first. Component k is key[k] plus byte k: two elements read
// wherever the event lies, no chain. A process keeps its keyframe for as long
// as every component is within 255 of it and starts a new one otherwise, so
// the form adapts to the traffic with nothing to tune.
//
// A projection over a cluster of n is a frame of 1 + ⌈n/4⌉ elements: the
// offset of the process's current projection keyframe, then the packed bytes
// (arena.project). The keyframe is the n raw elements of the projection that
// started it, followed at once by that event's own frame, all zero bytes; a
// process starts one when its epoch changes — the members differ — or an
// offset outgrows its byte, and a noted cluster receive in between does not
// end it. Every cell of a projection names a frame: there is one form, so a
// singleton cluster pays 8 bytes per event where its raw element was 4. At a
// cluster of 13 a frame is 20 bytes where the raw projection was 52.
//
// A frame is carved when the clock changed, not per event. A process's own
// component is its event's index (paper §2.2), which the cell's slot already
// says, so no frame holds it: the own element of a keyframe and the own byte
// of every frame are zero, the own component never outgrows a byte, and the
// readers take it from the slot (View.Precedes, View.Timestamp). A send
// or a unary event changes no other component, so while the epoch stays and no
// noted cluster receive came in between — that one did change the clock — its
// cell's vec names the frame of the projection before it in its process
// (lane.stamp): the difference is empty and nothing is carved. What a
// projection cell's vec names is therefore a frame carved for its own event or
// for an earlier one of the same process and epoch, never anything else; a
// receive, a synchronous half and the first projection after a noted cluster
// receive or an epoch change always carve.
//
// A noted cluster receive keeps its whole Fidge/Mattern vector the same way,
// over all numProcs components: its note (12 bytes: event index, keyframe
// offset, delta offset) names a keyframe of numProcs int32s — an earlier
// cluster receive's vector of the same process — and a delta frame of offsets
// above it (arena.frame). A note whose delta is noDelta is a keyframe itself.
// The delta frame has two forms, and the top bit of the note's index word says
// which (crNote.sparse). Dense, it is a byte per component, (numProcs+3)/4
// elements. Sparse, it is a bitmap of (numProcs+31)/32 elements, bit q of
// element q/32 set when component q moved, followed by only the nonzero
// bytes, packed four to an element in component order. Component q is key[q]
// when its bit is clear and key[q] plus the byte whose rank is the count of set
// bits below q otherwise: still two loads and no chain, the rank a popcount
// over at most ⌈q/32⌉ bitmap elements. The writer takes the sparse form
// exactly when it is strictly smaller, which it is while fewer than about
// seven in eight components moved since the keyframe. Few do between one
// process's cluster receives when its partners are few — an RPC client's
// server, a server's clients — and nearly all do under uniform traffic.
//
// A column is a directory of pages of pageCells cells each. Pages are
// allocated when the column reaches them (none at construction), are never
// moved or freed, and a column therefore never copies a published cell and
// wastes at most one partial page. Vectors — keyframes and frames of either
// kind — are carved from the owning lane's arena, so the steady-state
// ingest path performs no per-event allocation. Neither a page of cells, a
// page of notes nor an arena chunk contains a pointer: the garbage collector
// allocates them as no-scan spans and never looks inside.
//
// # Offsets
//
// An arena numbers its elements from 0 in one sequence that is cut into
// chunks at fixed places — 256 elements, 256, 512, … doubling to 65536 and
// 65536 from there on — so the chunk an offset falls in follows from the
// offset by a shift and a bit length (chunkOf), never a search. A chunk is
// allocated when a carve first reaches it and never moves. A vector is
// contiguous: a carve that does not fit in what is left of the current
// allocation leaves the remainder unused and starts at the next chunk
// boundary, and one larger than that chunk takes as many consecutive chunks
// as it needs in a single allocation, each listed as the tail of that
// allocation from its own first element on, which is what lets a reader slice
// a vector out of the chunk its offset names whatever the vector's length.
//
// The widths are the store's limits. An element offset has 32 bits and the
// last chunk is never started (which keeps noDelta out of the offset space),
// so a lane's arena holds arenaLimit elements, one chunk short of 16 GiB of
// vectors. An epoch shares its word with the two-bit kind and has 30, so a
// pipeline names at most epochLimit epochs. Neither can wrap: the admission
// gate (Admission.reserve, Pipeline.storeRoom) refuses a batch with
// ErrStoreFull while every lane is still far enough from its limit to stamp
// everything already admitted.
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
//     per finalized event is vector carve and fill → CR-note publication →
//     cell write → (directory store if a page was added) → wm store. The wm
//     store is the release edge: a reader that loads wm ≥ i observes slot
//     i-1's contents, a directory that lists its page, and every
//     cluster-receive note published before it. Readers load wm (or take a
//     captured one) BEFORE loading dir, so the directory they get is never
//     older than the one stored before that watermark.
//
// Readers never see a torn cell: slots at or above the loaded watermark
// are simply not theirs to read, and slots below it were fully written
// before the watermark advanced.
//
// Two more directories make a cell's offsets resolvable, each published the
// same way — an atomic pointer to an immutable slice header over entries that
// are never rewritten, stored before the watermark that first needs it:
//
//   - arena.dir is a lane arena's chunk list. The lane stores a new header
//     when a carve allocates (arena.grow), which is before it fills the
//     vector, before the cell that names the offset and so before that cell's
//     watermark store. A reader that found the cell below a watermark loads
//     the list afterwards and gets one that lists the chunk; a stale list
//     still resolves every offset carved before it was replaced.
//   - plane.epochs is the epoch table. The planner appends an epoch the first
//     time it stages an item under it (Pipeline.stageItem) and stores the new
//     header before the item can reach a lane: planner publishes epoch → lane
//     queue hand-off (the lane's mutex) → lane stamps the cell → watermark
//     store → reader's watermark load → reader's table load. The lane itself
//     reads the table on the same edge to learn the members to project over.
//
// Cluster-receive notes are a column of the same kind, and a cluster
// receive's cell names its note's slot, which like every slot of a page never
// moves. A frame of either kind only ever references a keyframe the same
// writer filled before it wrote the cell or appended the note, so whatever
// publishes that — the cell's watermark for a projection; for a note its own
// column's on the routed path, the cell's on the direct path — has published
// the keyframe, the bytes above it and the chunks both lie in with it.
//
// Soundness of the routed precedence path needs one extra observation: the
// notes consulted for a query about event f are those of some process q with
// index ≤ FM(f)[q]. Those q-events are causal predecessors of f, so any valid
// delivery order finalized them before f, and their lanes published them
// before f's lane could learn of them (put-after-publish, pipeline.go) —
// loading f's watermark therefore acquires every note the query can touch,
// and with it the chunk list of q's lane that resolves the note's offsets.
// Notes published after f's cell have indexes above the bound and are skipped
// by the binary search, so late reads are harmless.

// Page geometry: one constant. 256 cells are 2 KiB, so a 300-process store
// idles at most 0.6 MB of partial pages of cells.
const (
	pageShift = 8
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// The stored sizes, which StoreStats reports and TestStoredFormSizes pins.
const (
	cellBytes = 8
	noteBytes = 12
)

// epochLimit bounds the epoch table: an epoch index has the 30 bits of
// cell.ek the kind leaves it.
const epochLimit = 1 << 30

// cell is the stored form of one event's timestamp (see the file comment).
type cell struct {
	vec uint32 // projection: element offset of its frame in the owning lane's arena; epoch 0: slot in the process's note column
	ek  uint32 // epoch index << 2 | kind; epoch 0 = noted cluster receive
}

func (c *cell) epoch() uint32    { return c.ek >> 2 }
func (c *cell) kind() model.Kind { return model.Kind(c.ek & 3) }

// noDelta in crNote.delta marks a keyframe. No delta frame lies there: the
// arena's last chunk is never started (arenaLimit).
const noDelta = ^uint32(0)

// sparseBit in crNote.ix marks a sparse delta frame. An event index is a
// positive int32, so it never reaches the bit.
const sparseBit = 1 << 31

// crNote records a noted (non-merged) cluster receive of one process: the
// paper's "greatest cluster receive within this process at this point".
// Notes are appended in event-index order, so the column is sorted. The
// Fidge/Mattern vector is the keyframe at key plus, per component, the offset
// the frame at delta holds for it; a keyframe's vector is key itself. Both are
// element offsets into the arena of the lane that owns the process. ix is read
// through index and sparse only.
type crNote struct {
	ix    uint32 // event index, | sparseBit when the delta frame is sparse
	key   uint32 // numProcs elements, shared by the delta frames that follow
	delta uint32 // a dense or a sparse delta frame over key (see "Layout"), or noDelta
}

// index returns the note's event index.
func (n *crNote) index() int32 { return int32(n.ix &^ sparseBit) }

// sparse reports whether the note's delta frame is the sparse form.
func (n *crNote) sparse() bool { return n.ix&sparseBit != 0 }

// column is one process's paged append-only column of cells or notes.
// Deliberately NOT padded to a cache line: under sharded ingest adjacent
// columns can belong to different writer lanes, but the shard map is
// block-contiguous (or cluster-packed, which keeps hot neighbours together),
// so cross-lane line sharing is confined to shard boundaries — while padding
// every column to 64 B was measured to cost ~25% of single-thread query
// throughput by spreading the watermarks CaptureWatermark sweeps and
// View.cell loads.
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
// one. Writer only. The new slot, which never moves, is invisible to readers
// until publish.
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

// Arena geometry (see "Offsets" in the file comment): the first chunk and the
// steady-state chunk as shifts, and the element count a lane's arena stops
// short of.
const (
	arenaMinShift = 8
	arenaMaxShift = 16
	arenaLimit    = 1<<32 - 1<<arenaMaxShift
)

// chunkOf returns the index of the chunk element offset off falls in and the
// offset of that chunk's first element.
func chunkOf(off uint32) (k int, base uint32) {
	if off < 1<<(arenaMaxShift+1) { // the doubling chunks
		if k = bits.Len32(off >> arenaMinShift); k == 0 {
			return 0, 0
		}
		return k, 1 << (arenaMinShift - 1 + k)
	}
	hi := off >> arenaMaxShift
	return int(hi) + arenaMaxShift - arenaMinShift, hi << arenaMaxShift
}

// chunkCap returns the number of elements chunk k covers.
func chunkCap(k int) int {
	return 1 << min(arenaMinShift+max(k-1, 0), arenaMaxShift)
}

// chunkDir is an arena's chunk list, published or the writer's own: entry k
// starts at chunk k's first element and runs to the end of the allocation the
// chunk is part of. Its methods are the readers of the stored vectors; every
// offset handed to them must come from a cell or note found below a watermark
// loaded before the list was.
type chunkDir [][]int32

// at returns the element at offset off.
func (d chunkDir) at(off uint32) int32 {
	k, base := chunkOf(off)
	return d[k][off-base]
}

// slice returns the n-element vector carved at off, aliasing the arena.
func (d chunkDir) slice(off uint32, n int) []int32 {
	k, base := chunkOf(off)
	lo := int(off - base)
	return d[k][lo : lo+n : lo+n]
}

// deltaByte extracts component q's offset from the packed word holding it.
func deltaByte(word int32, q int) int32 {
	return int32(uint32(word) >> (8 * (q & 3)) & 0xff)
}

// packedWords is the number of arena elements n byte offsets pack into.
func packedWords(n int) int { return (n + 3) / 4 }

// bitmapWords is the number of arena elements a bit per component of n takes.
func bitmapWords(n int) int { return (n + 31) / 32 }

// nonzeroBytes counts the bytes of w that are not zero: bit 7 of a byte of
// (w&lo7)+lo7 is set when its low seven bits are not all zero, and w's own
// bit 7 covers the rest.
func nonzeroBytes(w uint32) int {
	const lo7 = 0x7f7f7f7f
	return bits.OnesCount32(((w & lo7) + lo7 | w) &^ lo7)
}

// projection is a stored projection resolved against one chunk list: the
// keyframe's elements and the packed offsets above them, both aliasing the
// arena. Component k is key[k] plus byte k of words, except the process's own,
// which the frame does not hold (see "Layout"): its reader takes it from the
// slot. word is next's state.
type projection struct {
	key, words []int32
	word       uint32 // the packed offsets of the members from next's k to k|3, member k's lowest
}

// proj resolves the frame at off, of a projection over a cluster of n.
func (d chunkDir) proj(off uint32, n int) projection {
	f := d.slice(off, 1+packedWords(n))
	return projection{key: d.slice(uint32(f[0]), n), words: f[1:]}
}

// next returns component k for a reader that asks for k = 0, 1, 2, … in turn,
// which takes a packed word per four members.
func (p *projection) next(k int) int32 {
	if k&3 == 0 {
		p.word = uint32(p.words[k>>2])
	}
	v := p.key[k] + int32(p.word&0xff)
	p.word >>= 8
	return v
}

// decode returns the stored components as a fresh slice.
func (p projection) decode() []int32 {
	v := make([]int32, len(p.key))
	for k := range v {
		v[k] = p.next(k)
	}
	return v
}

// projAt returns component k — not the process's own — of the projection
// whose frame lies at off without resolving the rest: the header and the
// packed word share a chunk, the key element is the second lookup.
func (d chunkDir) projAt(off uint32, k int) int32 {
	c, base := chunkOf(off)
	f := d[c][off-base:]
	return d.at(uint32(f[0])+uint32(k)) + deltaByte(f[1+k>>2], k)
}

// component returns element q of note n's vector; the caller bounds q to
// [0, numProcs). A sparse frame takes the bitmap word for q and, when its bit
// is set, the popcount of the ⌈q/32⌉ words up to it for the byte's rank.
func (d chunkDir) component(n *crNote, q model.ProcessID, numProcs int) int32 {
	v := d.at(n.key + uint32(q))
	if n.delta == noDelta {
		return v
	}
	if !n.sparse() {
		return v + deltaByte(d.at(n.delta+uint32(q)>>2), int(q))
	}
	c, base := chunkOf(n.delta)
	f := d[c][n.delta-base:] // one carve: the bitmap and the bytes share a chunk
	i, bit := int(q>>5), uint32(1)<<(q&31)
	w := uint32(f[i])
	if w&bit == 0 {
		return v
	}
	r := bits.OnesCount32(w & (bit - 1))
	for _, x := range f[:i] {
		r += bits.OnesCount32(uint32(x))
	}
	return v + deltaByte(f[bitmapWords(numProcs)+r>>2], r)
}

// full returns note n's Fidge/Mattern vector: the keyframe itself, aliasing
// the arena, or for a delta frame of either form a freshly decoded slice.
func (d chunkDir) full(n *crNote, numProcs int) []int32 {
	key := d.slice(n.key, numProcs)
	if n.delta == noDelta {
		return key
	}
	v := make([]int32, numProcs)
	if !n.sparse() {
		words := d.slice(n.delta, packedWords(numProcs))
		for q := range v {
			v[q] = key[q] + deltaByte(words[q>>2], q)
		}
		return v
	}
	copy(v, key)
	c, base := chunkOf(n.delta)
	bw := bitmapWords(numProcs)
	f := d[c][n.delta-base:]
	r := 0
	for i, w := range f[:bw] {
		for m := uint32(w); m != 0; m &= m - 1 {
			v[32*i+bits.TrailingZeros32(m)] += deltaByte(f[bw+r>>2], r)
			r++
		}
	}
	return v
}

// arena bulk-allocates the vectors of one lane's cells: the keyframes and
// frames of projections and of noted cluster receives. Chunks are written
// once by the owning lane and named forever, by offset, by the cells and notes
// whose vectors lie in them; carve hands out full-capacity subslices so no two
// vectors can ever overlap through append. Chunk capacity grows geometrically
// so small stores stay small while big stores amortize to one allocation per
// 64 Ki elements.
type arena struct {
	// dir is the published chunk list, the one field readers touch. The pads
	// keep it off every cache line a lane writes per event — this arena's
	// carve cursor and tallies after it, the tallies of the arena allocated
	// just before it — so a query beside ingest does not take a miss per
	// lookup.
	_   [64]byte
	dir atomic.Pointer[chunkDir]
	_   [64]byte

	chunks chunkDir // writer-private chunk list
	cur    []int32  // current allocation; len = carved prefix
	base   uint32   // offset of cur[0]
	spare  []int32  // writer-private: a delta frame's dense words while its sparse form is carved in their place
	stats  StoreStats
}

// StoreStats are the store's physical tallies — what the paper's
// fixed-vector accounting (StorageInts) deliberately does not model.
type StoreStats struct {
	VectorBytes   int64 `json:"vector_bytes"`     // carved from the lane arenas: keyframes and frames
	CellBytes     int64 `json:"cell_bytes"`       // 8 per stamped event
	NoteBytes     int64 `json:"note_bytes"`       // 12 per noted cluster receive
	Epochs        int64 `json:"epochs"`           // cluster epochs in the epoch table
	Keyframes     int64 `json:"cr_keyframes"`     // noted cluster receives stored as a keyframe
	DeltaFrames   int64 `json:"cr_delta_frames"`  // noted cluster receives stored as offsets above an earlier keyframe
	SparseFrames  int64 `json:"cr_sparse_frames"` // of the delta frames, those stored sparse: a bitmap and the nonzero bytes
	ProjKeyframes int64 `json:"proj_keyframes"`   // projections that started a keyframe (and carry a zero frame over it)
	ProjFrames    int64 `json:"proj_frames"`      // projections stored as a frame over an earlier keyframe
	ProjShared    int64 `json:"proj_shared"`      // sends and unary events whose cell names their predecessor's frame
}

// add adds o's tallies to s, field by field.
func (s *StoreStats) add(o StoreStats) {
	s.VectorBytes += o.VectorBytes
	s.CellBytes += o.CellBytes
	s.NoteBytes += o.NoteBytes
	s.Epochs += o.Epochs
	s.Keyframes += o.Keyframes
	s.DeltaFrames += o.DeltaFrames
	s.SparseFrames += o.SparseFrames
	s.ProjKeyframes += o.ProjKeyframes
	s.ProjFrames += o.ProjFrames
	s.ProjShared += o.ProjShared
}

// end returns the offset the next carve starts at unless it has to move on to
// a fresh chunk: everything below it is carved or skipped.
func (a *arena) end() uint32 { return a.base + uint32(len(a.cur)) }

// carve returns a zeroed slice of n elements with capacity exactly n, and the
// offset it lies at.
func (a *arena) carve(n int) (uint32, []int32) {
	if n == 0 {
		return a.end(), nil
	}
	if len(a.cur)+n > cap(a.cur) {
		a.grow(n)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	a.stats.VectorBytes += 4 * int64(n)
	return a.base + uint32(lo), a.cur[lo : lo+n : lo+n]
}

// grow leaves what remains of the current allocation unused and allocates the
// next chunk — or as many consecutive chunks as n elements take — listing and
// publishing them. The admission gate keeps every lane short of arenaLimit;
// an allocation past it is a bug there, and the offsets it would wrap are not
// handed out.
func (a *arena) grow(n int) {
	base := uint64(a.base) + uint64(cap(a.cur)) // every chunk so far is part of some allocation
	size := 0
	for k := len(a.chunks); size < n; k++ {
		size += chunkCap(k)
	}
	if base+uint64(size) > arenaLimit {
		panic("hct: arena carved past its offset limit: the admission gate should have refused the batch")
	}
	buf := make([]int32, size)
	for lo := 0; lo < size; lo += chunkCap(len(a.chunks) - 1) {
		a.chunks = append(a.chunks, buf[lo:])
	}
	a.cur, a.base = buf[:0], uint32(base)
	d := a.chunks
	a.dir.Store(&d)
}

// uncarve takes back w, the most recent carve, zeroed again.
func (a *arena) uncarve(w []int32) {
	clear(w)
	a.cur = a.cur[:len(a.cur)-len(w)]
	a.stats.VectorBytes -= 4 * int64(len(w))
}

// frame stores clk, the clock of the noted cluster receive with event index
// index, and returns its note. prev is the process's previous note, nil
// before its first cluster receive; its key is the process's current
// keyframe. The note is a delta frame over that keyframe while every
// component of clk is within 255 of it, and a new keyframe otherwise.
//
// The offsets are packed in one pass that also ORs them together — nearly
// every frame fits, so filling first and testing once beats a test per
// component — and the elements they were packed into are taken back when the
// OR says one did not fit. A process's clocks only grow, so an offset is
// never negative; as a uint32 it would fail the test all the same.
//
// A frame that fits is stored sparse when that is strictly smaller — a bitmap
// word per 32 components and only the nonzero bytes, in component order —
// carved where the dense words lay, so it never reaches past them (roomFor).
func (a *arena) frame(index int32, prev *crNote, clk []int32) crNote {
	if prev != nil {
		n := len(clk)
		key := a.chunks.slice(prev.key, n)
		at, words := a.carve(packedWords(n))
		// An offset above 255 spills into its neighbours' bytes, but then the
		// frame is not kept.
		var over uint32
		full := n / 4
		for i := 0; i < full; i++ {
			c, k := clk[4*i:4*i+4:4*i+4], key[4*i:4*i+4:4*i+4]
			o0, o1, o2, o3 := uint32(c[0]-k[0]), uint32(c[1]-k[1]), uint32(c[2]-k[2]), uint32(c[3]-k[3])
			over |= o0 | o1 | o2 | o3
			words[i] = int32(o0 | o1<<8 | o2<<16 | o3<<24)
		}
		for q := 4 * full; q < n; q++ {
			off := uint32(clk[q] - key[q])
			over |= off
			words[full] |= int32(off << (8 * (q & 3)))
		}
		if over <= 255 {
			a.stats.DeltaFrames++
			// What moved since the keyframe only grows with the clock, so
			// after a dense frame over it every frame is dense: nothing to count.
			if prev.delta == noDelta || prev.sparse() {
				if off, ok := a.carveSparse(words, n); ok {
					return crNote{ix: uint32(index) | sparseBit, key: prev.key, delta: off}
				}
			}
			return crNote{ix: uint32(index), key: prev.key, delta: at}
		}
		a.uncarve(words)
	}
	at, k := a.carve(len(clk))
	copy(k, clk)
	a.stats.Keyframes++
	return crNote{ix: uint32(index), key: at, delta: noDelta}
}

// carveSparse stores the dense frame words over n components, the most recent
// carve, in the sparse form instead when that is strictly smaller, and returns
// its offset: the dense words are taken back and the sparse frame carved where
// they lay. Otherwise it leaves them be.
func (a *arena) carveSparse(words []int32, n int) (uint32, bool) {
	nz := 0
	for _, w := range words {
		nz += nonzeroBytes(uint32(w))
	}
	bw := bitmapWords(n)
	if bw+packedWords(nz) >= len(words) {
		return 0, false
	}
	a.spare = append(a.spare[:0], words...)
	a.uncarve(words)
	at, f := a.carve(bw + packedWords(nz))
	sparsify(f, bw, a.spare)
	a.stats.SparseFrames++
	return at, true
}

// sparsify fills f, carved zeroed, with the sparse form of the dense frame
// words: the bitmap in f[:bw], then the nonzero bytes in component order. It
// does not branch on a byte, whose pattern is the traffic's: every byte is
// added to a 64-bit accumulator at the position p past the nonzero ones before
// it, so a zero adds nothing, and the accumulator hands the stream out four
// bytes at a time. A shift count masked to its width is one instruction.
func sparsify(f []int32, bw int, words []int32) {
	out := f[bw:]
	var acc uint64
	p, pos := uint(0), 0
	for i, w := range words {
		u := uint32(w)
		if u == 0 {
			continue
		}
		b0, b1, b2, b3 := u&0xff, u>>8&0xff, u>>16&0xff, u>>24
		z0, z1, z2, z3 := (b0+255)>>8, (b1+255)>>8, (b2+255)>>8, (b3+255)>>8 // 1 unless the byte is zero
		f[i>>3] |= int32((z0 | z1<<1 | z2<<2 | z3<<3) << (4 * (i & 7)))
		acc |= uint64(b0) << (8 * p & 63)
		p += uint(z0)
		acc |= uint64(b1) << (8 * p & 63)
		p += uint(z1)
		acc |= uint64(b2) << (8 * p & 63)
		p += uint(z2)
		acc |= uint64(b3) << (8 * p & 63)
		p += uint(z3)
		out[pos] = int32(uint32(acc)) // p > 0 bytes are pending, all of them counted in f: pos is in range
		adv := p >> 2
		pos += int(adv)
		acc >>= 32 * adv & 63
		p &= 3
	}
	if p > 0 {
		out[pos] = int32(uint32(acc))
	}
}

// projKey is a process's projection state: where its current keyframe lies
// and the epoch it is over, and last, the frame of its latest projection, which
// is what the cell of an event that changed no component but the own names
// again while live — no noted cluster receive came since. Writer-private, 16
// bytes per process; the zero value is no keyframe yet, epoch 0 being no
// projection's.
type projKey struct {
	at, ep, last uint32
	live         bool
}

// project stores the projection of clk over members, the cluster of epoch ep,
// for the process whose current keyframe is cur, and returns the offset of its
// frame, now the process's last. The frame is over that keyframe while the
// epoch is the same and every component is within 255 of it; otherwise the
// projection becomes the process's keyframe, carved together with its own
// all-zero frame. Like arena.frame it packs first and tests once, and takes
// the elements back when an offset did not fit. The caller passes the process's
// own component as zero (lane.stamp): it is the event's index, which the cell's
// slot already says, so it neither is stored nor can outgrow its byte.
func (a *arena) project(cur *projKey, ep uint32, clk []int32, members []int32) uint32 {
	n, w := len(members), packedWords(len(members))
	if cur.ep == ep {
		key := a.chunks.slice(cur.at, n)
		at, f := a.carve(1 + w)
		var over, word uint32
		for k, q := range members {
			off := uint32(clk[q] - key[k])
			over |= off
			word |= off << (8 * (k & 3))
			if k&3 == 3 {
				f[1+k>>2], word = int32(word), 0
			}
		}
		if n&3 != 0 {
			f[w] = int32(word)
		}
		if over <= 255 {
			f[0] = int32(cur.at)
			cur.last, cur.live = at, true
			a.stats.ProjFrames++
			return at
		}
		a.uncarve(f)
	}
	at, key := a.carve(n + 1 + w)
	for k, q := range members {
		key[k] = clk[q]
	}
	key[n] = int32(at)
	*cur = projKey{at: at, ep: ep, last: at + uint32(n), live: true}
	a.stats.ProjKeyframes++
	return cur.last
}

// appendNote stores clk as the next noted cluster receive of the process
// notes belongs to — a delta frame over the process's current keyframe, the
// key of its previous note, or a new keyframe — publishes the note and
// returns its slot, which never moves. Writer only.
func appendNote(notes *crColumn, a *arena, index int32, clk []int32) int32 {
	slot := notes.n
	notes.append(a.frame(index, notes.last(), clk))
	notes.publish()
	return slot
}

// Watermark is a per-process snapshot of published event counts: a cut of
// the store against which a whole batch of queries can be answered
// consistently while ingestion keeps running (plane.At, View.Capture).
// Captured watermarks are plain data; reusing the backing slice across
// captures is the caller's prerogative (see monitor.Queries.QueryBatch).
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
