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
// event is a 4-byte cell that holds no address: a bit that says whether the
// event is a noted cluster receive, the kind, and where its vector is.
// Everything else is implied by position, is shared by a run of events, or is
// not the store's: the event ID is (column, slot+1); a communication event's
// partner is part of the event's record, which the daemon's write-ahead log
// keeps, and no read of the store needs it — View.Precedes tells the two
// halves of a synchronous pair apart by their clocks [sync-partners-direct];
// the vector of a projection is a frame at an element offset into the arena
// of the lane that owns the process, and its cluster epoch is stored once per
// keyframe, not per event [epoch-in-keyframe]. A noted
// cluster receive has no epoch: its cell's offset is the slot of its note in
// the process's note column. hct.Timestamp is the read-time form of a cell,
// built by value on request (View.Timestamp); the precedence path reads
// cells, frames and notes directly and builds none.
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
// A projection over a cluster of n is stored in one of three forms, the first
// that fits (arena.project), and every cell of a projection names a frame:
//
//   - a nibble frame of 1 + ⌈n/8⌉ elements: a header, the offset of the
//     process's anchor with projNibbleBit set above its 29 bits, then a
//     nibble per member above the anchor, packed eight to an element. It
//     fits while every member is within 15 of the anchor.
//   - a byte frame of 1 + ⌈n/4⌉ elements: a header, the offset of the
//     process's current projection keyframe, then a byte per member above
//     the keyframe, packed four to an element. It fits while every member is
//     within 255 of the keyframe, and it becomes the process's anchor.
//   - a keyframe, one carve of n + 2 + ⌈n/4⌉ elements: the epoch element —
//     the index of the cluster epoch in the pipeline's append-only epoch
//     table (plane.epochs), whose entry is the immutable *cluster.Info the
//     projection is over — then the n raw elements of the projection that
//     started it, then at once that event's own frame, a byte frame of zero
//     bytes, which is the process's anchor until it carves another byte frame.
//
// So the anchor is the process's latest byte frame over its current keyframe,
// and member k of a projection is key[k], plus the anchor's byte k, plus the
// nibble frame's nibble k: at most three reads after the cell, a fixed depth,
// never a chain. A nibble frame may lie up to 255 + 15 above its keyframe. A
// process starts a keyframe when its epoch changes — the members may differ —
// or an offset outgrows its byte, and a noted cluster receive in between does
// not end it. So a reader finds a projection's epoch one element before the
// keyframe its frame names [epoch-in-keyframe]; chunkDir.proj resolves a
// frame, its anchor and its keyframe in one walk. A singleton cluster pays 8 bytes per carved frame where its raw
// element was 4. At a cluster of 13 a nibble frame is 12 bytes, a byte frame
// 20, where the raw projection was 52. Consecutive projections of a process
// on a ring move each member by a little, so most of them are nibble frames
// over a recent byte frame even when the keyframe lies far behind.
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
// over all numProcs components: its note (12 bytes: event index, key
// reference, frame reference) names a key — an earlier cluster receive's
// vector of the same process — and a frame of offsets (arena.frame). A key is
// a raw keyframe of numProcs int32s, or a 16-bit key: a 16-bit offset per
// component over the process's raw keyframe, whose one header element,
// rawElem before what the reference names, is that raw keyframe's offset. A
// key reference is the key's element offset, with wideBit set above its 29
// bits for a 16-bit key and sparseBit beside it for its form; a 16-bit key
// is always over a raw keyframe, never over another. A note whose frame
// reference is noDelta is its key itself. A frame reference is the frame's
// element offset with its form in the two bits above the offset's 29:
// sparseBit and nibbleBit. There are two frames, at a fixed depth:
//
//   - a delta frame is a byte per component above the key. The latest one of
//     a process is its anchor; until the process has one, the key itself is.
//   - a nibble frame is a nibble per component above the anchor. Its first
//     element, anchorElem before what the reference names, is the anchor's
//     reference (noDelta for the key), as a projection frame's first
//     element names its keyframe.
//
// The writer takes the first that fits: a nibble frame while every component
// is within 15 of the anchor, then a delta frame — the new anchor — while
// every one is within 255 of the key, then a 16-bit key over the raw
// keyframe — the new key and anchor, replacing the old key over the same raw
// keyframe — while every one is within 65535 of that and the key is strictly
// smaller than a raw keyframe, then a new raw keyframe, which is the key and
// the anchor too. Component q is raw[q], plus the 16-bit key's field q, plus
// the delta frame's byte q, plus the nibble frame's nibble q: five reads
// after the note at most, never a chain. Consecutive cluster receives of one
// process nearly always leave some component more than 15 above the key, but
// far fewer above a recent frame, which is why the nibbles are over the
// anchor and not over the key; and an RPC client's server outgrows a byte
// above the key every few receives but seldom 16 bits above the raw keyframe
// (on rpc-fanin's computation 2921 keys, 260 of them raw), which is why a
// key is renewed at 16 bits.
//
// Either frame, and a 16-bit key, is dense, an offset per component packed
// 1<<lg to an element (lowest first), or sparse: a bitmap of
// (numProcs+31)/32 elements, bit q of element q/32 set when component q's
// offset is not zero, followed by only those offsets, packed the same way in
// component order. An offset is then zero when its bit is clear and otherwise
// the one whose rank is the count of set bits below q: a popcount over at
// most ⌈q/32⌉ bitmap elements. The writer takes the sparse form exactly when
// it is strictly smaller. Few
// components move between one process's cluster receives when its partners
// are few — an RPC client's server, a server's clients — and nearly all do
// above a keyframe under uniform traffic.
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
// The widths are the store's limits. A cell's offset shares its word with the
// noted bit and the two-bit kind and has 29 bits, and the last chunk below
// 2²⁹ is never started, so a lane's arena holds arenaLimit elements, one chunk
// short of 2 GiB of vectors (noDelta lies far outside). The same 29 bits name
// a note's slot, and every note carves at least one element of its lane's
// arena, so no process has as many notes. An epoch index is a keyframe's
// element, and a pipeline names at most epochLimit epochs. Neither can wrap:
// the admission gate refuses a batch with ErrStoreFull while every lane is
// still far enough from its limit to stamp everything already admitted
// [storeRoom-overcounts].
//
// # Publication protocol (one writer per column, many readers)
//
// Each column is written only by the lane that owns its process (lane.stamp
// in pipeline.go); queries run concurrently with the writer and take no lock.
// A column publishes with two atomics: dir, the page directory (an immutable
// slice header over the page pointers, stored anew only when a page is
// added), and wm, the watermark (the count of published slots). Per finalized
// event the writer's order is vector carve and fill → cluster-receive note →
// cell → directory, if a page was added → wm store, the release edge. A
// reader loads wm (or takes a captured one), then dir, then page and slot:
// three loads, no CAS, no retry [dir-before-wm]. Slots at or above the
// watermark are not the reader's; slots below it were written whole before it
// advanced, and stay where they are [pages-never-move].
//
// Two more directories, published the same way, make a cell's offsets
// resolvable: arena.dir, a lane arena's chunk list, stored by arena.grow
// before the carve it serves is filled [dir-before-wm]; and plane.epochs, the
// epoch table, appended by the planner in Pipeline.stageItem before the item
// that names the entry can reach a lane [epoch-before-item]. A frame resolves
// through any chunk list that resolves the cell or note naming it, its anchor
// and keyframe included [anchor-before-frame].
//
// The routed precedence path reads notes of other processes, published by
// other lanes. The ones a query about f consults have index ≤ FM(f)[q], so
// loading f's watermark acquires them, and those published later lie above
// the bound and are skipped by the binary search [notes-precede-f].

// Page geometry: one constant. 256 cells are 1 KiB, so a 300-process store
// idles at most 0.3 MB of partial pages of cells.
const (
	pageShift = 8
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// The stored sizes, which StoreStats reports and TestStoredFormSizes pins.
const (
	cellBytes = 4
	noteBytes = 12
)

// epochLimit bounds the epoch table. An epoch index is stored as an int32
// arena element (arena.project), so anything below 2³¹ would fit; at 2³⁰
// entries the table is already 8 GiB of pointers.
const epochLimit = 1 << 30

// cell is the stored form of one event's timestamp (see the file comment):
// one word, read through its methods. Bit 31 marks a noted cluster receive,
// bits 29–30 hold the kind and the low vecBits bits the offset vec returns.
type cell uint32

const (
	vecBits  = 29
	notedBit = 1 << 31
)

// newCell returns the cell of an event of kind k: for a noted cluster
// receive vec is the slot of its note in the process's note column,
// otherwise the element offset of its frame in the owning lane's arena.
func newCell(noted bool, k model.Kind, vec uint32) cell {
	c := cell(uint32(k)<<vecBits | vec)
	if noted {
		c |= notedBit
	}
	return c
}

func (c cell) noted() bool      { return c&notedBit != 0 }
func (c cell) kind() model.Kind { return model.Kind(c >> vecBits & 3) }
func (c cell) vec() uint32      { return uint32(c) & (1<<vecBits - 1) }

// noDelta in crNote.delta marks a keyframe. No frame lies there: it is far
// above arenaLimit, and its form bits are all set.
const noDelta = ^uint32(0)

// A frame reference — a note's delta, and the anchor header of a nibble frame —
// is an element offset below 2^vecBits with the frame's form in the two bits
// above it (see "Layout"): sparse or dense, and nibbles over an anchor or
// bytes over the keyframe. noDelta, the keyframe itself, has every bit set.
const (
	offMask   = 1<<vecBits - 1
	sparseBit = 1 << vecBits       // a bitmap, then only the offsets that are not zero
	nibbleBit = 1 << (vecBits + 1) // a nibble frame over the anchor its header names
)

// anchorElem is how many elements before a nibble frame's nibbles its header
// lies: the reference of the frame the nibbles are over. The writer
// (arena.frame) and the readers (chunkDir.component, chunkDir.full) place it
// by this name.
const anchorElem = 1

// A note's key is a key reference: a raw keyframe's element offset, or, with
// wideBit set above the offset's 29 bits, a 16-bit key's — sparseBit beside it
// saying which form that one takes. A 16-bit key lies rawElem elements behind
// its header, the offset of the raw keyframe it is over. The writer
// (arena.frame) and the readers (chunkDir.component, chunkDir.full) place both
// by these names.
const (
	wideBit = 1 << (vecBits + 1) // a 16-bit key over the raw keyframe its header names
	rawElem = 1
)

// projNibbleBit marks a projection frame's header as a nibble frame's: the
// offset below it is the anchor's, a byte frame, not the keyframe's. It is
// written only by arena.project and read only by chunkDir.proj.
const projNibbleBit = 1 << (vecBits + 1)

// crNote records a noted (non-merged) cluster receive of one process: the
// paper's "greatest cluster receive within this process at this point".
// Notes are appended in event-index order, so the column is sorted. The
// Fidge/Mattern vector is the key's vector — a raw keyframe, or a 16-bit key
// over one — plus, per component, the offset the frame delta names holds for
// it and, for a nibble frame, the offset the delta frame its header names
// holds; a key's vector is the note's own when delta is noDelta. key's and
// delta's offsets are element offsets into the arena of the lane that owns
// the process.
type crNote struct {
	index int32  // event index
	key   uint32 // a key reference (wideBit), shared by the frames that follow
	delta uint32 // a frame reference (see "Layout"), or noDelta
}

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

type tsColumn = column[cell]

// crColumn is a process's note column and the writer's copy of its anchor:
// the reference of its latest delta frame, noDelta while that is its key
// (arena.frame). anchor is writer-private.
type crColumn struct {
	column[crNote]
	anchor uint32
}

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

// publish releases every appended slot to readers [dir-before-wm].
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
// short of: every offset below it fits a cell's vecBits.
const (
	arenaMinShift = 8
	arenaMaxShift = 16
	arenaLimit    = 1<<vecBits - 1<<arenaMaxShift
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
// loaded before the list was [dir-before-wm].
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

// A packed frame holds its offsets 1<<lg to an element, each 32>>lg bits
// wide, lowest first: 16-bit fields (a cluster receive's 16-bit key) wideLg,
// bytes (a projection's frame, a delta frame) byteLg, nibbles nibbleLg.
const (
	wideLg   = 1
	byteLg   = 2
	nibbleLg = 3
)

// packedWords is the number of arena elements n offsets pack into, 1<<lg to
// an element.
func packedWords(n int, lg uint) int { return (n + 1<<lg - 1) >> lg }

// field returns offset k of a packed frame's elements f.
func field(f []int32, k int, lg uint) int32 {
	w := 32 >> lg
	return int32(uint32(f[k>>lg]) >> (w * (k & (1<<lg - 1))) & (1<<w - 1))
}

// bitmapWords is the number of arena elements a bit per component of n takes.
func bitmapWords(n int) int { return (n + 31) / 32 }

// nonzeroFields counts the offsets of the packed element w, 1<<lg of them,
// that are not zero: the top bit of a field of (w&lo)+lo, lo each field's low
// bits, is set when those are not all zero, and w's own top bit covers the
// rest.
func nonzeroFields(w uint32, lg uint) int {
	lo := ^uint32(0) / (1<<(32>>lg) - 1) * (1<<(32>>lg-1) - 1) // 0x7f7f7f7f, 0x77777777
	return bits.OnesCount32(((w & lo) + lo | w) &^ lo)
}

// projection is a stored projection resolved against one chunk list: its
// epoch index, the keyframe's raw elements, the anchor's packed bytes above
// them and, for a nibble frame, the frame's packed nibbles above the anchor,
// all aliasing the arena and running on to the end of their allocations.
// Member k is key[k] plus byte k of bytes plus nibble k of nibs, except the
// process's own, which no frame holds (see "Layout"): its reader takes it
// from the slot. word and nword are next's state.
type projection struct {
	ep               uint32
	key, bytes, nibs []int32 // nibs is nil for a byte frame
	word, nword      uint32  // the packed bytes of the members from next's k to k|3 and nibbles to k|7, member k's lowest
}

// epochElem is how many elements before a projection keyframe's raw
// components its epoch element lies: the writer (arena.project) and the
// reader (chunkDir.proj) both place it by this name.
const epochElem = 1

// proj resolves the projection whose frame lies at off: the frame, through its
// header the anchor for a nibble frame, and the keyframe the byte frame names,
// with the epoch element before it. It is the one walk from a frame to its
// keyframe, so a reader that needs the epoch and a member pays for it once,
// and the one reader of projNibbleBit and of the epoch element.
func (d chunkDir) proj(off uint32) projection {
	var p projection
	f := d.from(off)
	if h := uint32(f[0]); h&projNibbleBit != 0 {
		p.nibs = f[1:]
		f = d.from(h & offMask) // anchor-before-frame: listed if the frame is
	}
	p.bytes = f[1:]
	kf := d.from(uint32(f[0]) - epochElem) // one carve: the epoch element and the raw ones share a chunk
	p.ep, p.key = uint32(kf[0]), kf[epochElem:]
	return p
}

// member returns member k's component — not the process's own: the keyframe
// element, the anchor's byte and, for a nibble frame, its nibble.
func (p *projection) member(k int) int32 {
	v := p.key[k] + field(p.bytes, k, byteLg)
	if p.nibs != nil {
		v += field(p.nibs, k, nibbleLg)
	}
	return v
}

// next returns member k's component for a reader that asks for k = 0, 1, 2, …
// in turn, which takes a packed word of bytes per four members and one of
// nibbles per eight.
func (p *projection) next(k int) int32 {
	if k&3 == 0 {
		p.word = uint32(p.bytes[k>>2])
	}
	v := p.key[k] + int32(p.word&0xff)
	p.word >>= 8
	if p.nibs != nil {
		if k&7 == 0 {
			p.nword = uint32(p.nibs[k>>3])
		}
		v += int32(p.nword & 15)
		p.nword >>= 4
	}
	return v
}

// decode returns the stored components of a projection over a cluster of n as
// a fresh slice.
func (p projection) decode(n int) []int32 {
	v := make([]int32, n)
	for k := range v {
		v[k] = p.next(k)
	}
	return v
}

// offsetAt returns component q's offset in the frame f over numProcs
// components: dense, offset q; sparse, zero when q's bit in the bitmap is
// clear and otherwise the offset whose rank is the count of set bits below
// it.
func offsetAt(f []int32, q int, lg uint, sparse bool, numProcs int) int32 {
	if sparse {
		if q = rank(f, q); q < 0 {
			return 0
		}
		f = f[bitmapWords(numProcs):]
	}
	return field(f, q, lg)
}

// rank returns the number of bits set below bit q of the bitmap f, a popcount
// over at most ⌈q/32⌉ elements, or -1 when bit q is clear.
func rank(f []int32, q int) int {
	i, bit := q>>5, uint32(1)<<(q&31)
	w := uint32(f[i])
	if w&bit == 0 {
		return -1
	}
	r := bits.OnesCount32(w & (bit - 1))
	for _, x := range f[:i] {
		r += bits.OnesCount32(uint32(x))
	}
	return r
}

// addOffsets sets v to base plus the offsets of the frame f, dense or
// sparse; base may be v itself.
func addOffsets(v, base, f []int32, lg uint, sparse bool) {
	n := len(v)
	base = base[:n]
	if sparse {
		copy(v, base)
		bw := bitmapWords(n)
		r := 0
		for i, w := range f[:bw] {
			for m := uint32(w); m != 0; m &= m - 1 {
				v[32*i+bits.TrailingZeros32(m)] += field(f[bw:], r, lg)
				r++
			}
		}
		return
	}
	full := n >> lg
	for i, w := range f[:full] {
		u := uint32(w)
		if lg == nibbleLg {
			d, b := (*[8]int32)(v[8*i:]), (*[8]int32)(base[8*i:])
			d[0], d[1], d[2], d[3] = b[0]+int32(u&15), b[1]+int32(u>>4&15), b[2]+int32(u>>8&15), b[3]+int32(u>>12&15)
			d[4], d[5], d[6], d[7] = b[4]+int32(u>>16&15), b[5]+int32(u>>20&15), b[6]+int32(u>>24&15), b[7]+int32(u>>28)
		} else if lg == byteLg {
			d, b := (*[4]int32)(v[4*i:]), (*[4]int32)(base[4*i:])
			d[0], d[1], d[2], d[3] = b[0]+int32(u&0xff), b[1]+int32(u>>8&0xff), b[2]+int32(u>>16&0xff), b[3]+int32(u>>24)
		} else {
			d, b := (*[2]int32)(v[2*i:]), (*[2]int32)(base[2*i:])
			d[0], d[1] = b[0]+int32(u&0xffff), b[1]+int32(u>>16)
		}
	}
	for q := full << lg; q < n; q++ {
		v[q] = base[q] + field(f, q, lg)
	}
}

// from returns the elements from off to the end of the allocation it lies
// in: a frame and whatever was carved after it.
func (d chunkDir) from(off uint32) []int32 {
	k, base := chunkOf(off)
	return d[k][off-base:]
}

// component returns element q of note n's vector; the caller bounds q to
// [0, numProcs). It reads the raw keyframe's element — under a 16-bit key
// after the key's header, and with the key's field added: two more dependent
// reads — the nibble frame's header and nibble if n is one, and the delta
// frame's offset: at most five reads after the note, never a chain.
func (d chunkDir) component(n *crNote, q model.ProcessID, numProcs int) int32 {
	var v int32
	if key := n.key; key&wideBit != 0 {
		f := d.from(key&offMask - rawElem) // one carve: the header and the fields share a chunk [anchor-before-frame]
		v = d.at(uint32(f[rawElem-1])+uint32(q)) + offsetAt(f[rawElem:], int(q), wideLg, key&sparseBit != 0, numProcs)
	} else {
		v = d.at(key + uint32(q))
	}
	ref := n.delta
	if ref == noDelta {
		return v
	}
	if ref&nibbleBit != 0 {
		f := d.from(ref&offMask - anchorElem) // one carve: the header and the nibbles share a chunk
		v += offsetAt(f[anchorElem:], int(q), nibbleLg, ref&sparseBit != 0, numProcs)
		if ref = uint32(f[anchorElem-1]); ref == noDelta {
			return v
		}
	}
	return v + offsetAt(d.from(ref&offMask), int(q), byteLg, ref&sparseBit != 0, numProcs)
}

// full returns note n's Fidge/Mattern vector: a raw keyframe itself, aliasing
// the arena, or for a 16-bit key or a frame of any form the vector decoded
// into buf when it has the room and into a fresh slice otherwise.
func (d chunkDir) full(n *crNote, numProcs int, buf []int32) []int32 {
	kref, ref := n.key, n.delta
	if kref&wideBit == 0 && ref == noDelta {
		return d.slice(kref, numProcs)
	}
	v := buf[:0]
	if cap(v) < numProcs {
		v = make([]int32, numProcs)
	}
	v = v[:numProcs]
	key := v
	if kref&wideBit != 0 {
		f := d.from(kref&offMask - rawElem) // [anchor-before-frame]
		addOffsets(v, d.slice(uint32(f[rawElem-1]), numProcs), f[rawElem:], wideLg, kref&sparseBit != 0)
		if ref == noDelta {
			return v
		}
	} else {
		key = d.slice(kref, numProcs)
	}
	if ref&nibbleBit != 0 {
		f := d.from(ref&offMask - anchorElem)
		addOffsets(v, key, f[anchorElem:], nibbleLg, ref&sparseBit != 0)
		if ref, key = uint32(f[anchorElem-1]), v; ref == noDelta {
			return v
		}
	}
	addOffsets(v, key, d.from(ref&offMask), byteLg, ref&sparseBit != 0)
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
	spare  []int32  // writer-private: a frame's packed offsets, and a note's anchor, while arena.frame or arena.project tests them
	stats  StoreStats
}

// StoreStats are the store's physical tallies — what the paper's
// fixed-vector accounting (StorageInts) deliberately does not model.
type StoreStats struct {
	VectorBytes      int64 `json:"vector_bytes"`       // carved from the lane arenas: keyframes and frames
	CellBytes        int64 `json:"cell_bytes"`         // 4 per stamped event
	NoteBytes        int64 `json:"note_bytes"`         // 12 per noted cluster receive
	Epochs           int64 `json:"epochs"`             // cluster epochs in the epoch table
	Keyframes        int64 `json:"cr_keyframes"`       // noted cluster receives stored as a key: a raw keyframe, or a 16-bit key over one
	WideKeys         int64 `json:"cr_wide_keys"`       // of the keyframes, the 16-bit keys: 16-bit offsets above their process's raw keyframe
	DeltaFrames      int64 `json:"cr_delta_frames"`    // noted cluster receives stored as bytes above their process's key, each its anchor
	NibbleFrames     int64 `json:"cr_nibble_frames"`   // noted cluster receives stored as nibbles above their process's anchor
	SparseFrames     int64 `json:"cr_sparse_frames"`   // of the delta and nibble frames, those stored sparse: a bitmap and the nonzero offsets
	ProjKeyframes    int64 `json:"proj_keyframes"`     // projections that started a keyframe (and carry a zero frame over it)
	ProjFrames       int64 `json:"proj_frames"`        // projections stored as bytes over an earlier keyframe, each its process's anchor
	ProjNibbleFrames int64 `json:"proj_nibble_frames"` // projections stored as nibbles over their process's anchor
	ProjShared       int64 `json:"proj_shared"`        // sends and unary events whose cell names their predecessor's frame
}

// add adds o's tallies to s, field by field.
func (s *StoreStats) add(o StoreStats) {
	s.VectorBytes += o.VectorBytes
	s.CellBytes += o.CellBytes
	s.NoteBytes += o.NoteBytes
	s.Epochs += o.Epochs
	s.Keyframes += o.Keyframes
	s.WideKeys += o.WideKeys
	s.DeltaFrames += o.DeltaFrames
	s.NibbleFrames += o.NibbleFrames
	s.SparseFrames += o.SparseFrames
	s.ProjKeyframes += o.ProjKeyframes
	s.ProjFrames += o.ProjFrames
	s.ProjNibbleFrames += o.ProjNibbleFrames
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
// publishing them. The admission gate keeps every lane short of arenaLimit
// [storeRoom-overcounts]; an allocation past it is a bug there, and the
// offsets it would wrap are not handed out.
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

// frame stores clk, the clock of the noted cluster receive with event index
// index, and returns its note. prev is the process's previous note, nil
// before its first cluster receive; its key is the process's current key, a
// raw keyframe or a 16-bit key over one, and *anchor is the writer's copy of
// the reference of its anchor: its latest delta frame, or noDelta while that
// is the key itself. The note is the first of these that fits:
//
//   - a nibble frame over the anchor, while every component of clk is within
//     15 of the anchor's vector; its header is *anchor;
//   - a delta frame of bytes over the key, while every component is within
//     255 of it; it becomes the anchor;
//   - a 16-bit key over the raw keyframe, while every component is within
//     65535 of it and the key, its header included, is strictly smaller than
//     a raw keyframe; it becomes the key and the anchor. Its header is the raw
//     keyframe's offset: a 16-bit key is never over another;
//   - a new raw keyframe, which becomes the key and the anchor too.
//
// The key is decoded into the lane's scratch by chunkDir.full — a raw
// keyframe is aliased — and the anchor, a delta frame over it, there too;
// each form's offsets are packed there in one pass that also ORs them
// together, element by element, stopping at the first that does not fit. A process's clocks only grow, so an offset
// is never negative; as a uint32 it would fail the test all the same. A frame
// is carved only once it fits, in the smaller of its two forms
// (arena.carveFrame), so a noted cluster receive carves once.
func (a *arena) frame(index int32, prev *crNote, anchor *uint32, clk []int32) crNote {
	n := len(clk)
	if prev != nil {
		nw, bw, ww := packedWords(n, nibbleLg), packedWords(n, byteLg), packedWords(n, wideLg)
		if size := 2*n + ww; cap(a.spare) < size {
			a.spare = make([]int32, size)
		}
		// The key, decoded once: aliasing a raw keyframe, or a 16-bit key's
		// vector; then the anchor over it.
		key := a.chunks.full(&crNote{key: prev.key, delta: noDelta}, n, a.spare[n:2*n])
		anc := key
		if ref := *anchor; ref != noDelta {
			anc = a.spare[:n]
			addOffsets(anc, key, a.chunks.from(ref&offMask), byteLg, ref&sparseBit != 0)
		}
		words := a.spare[2*n : 2*n+ww]
		if pack(words[:nw], clk, anc, nibbleLg) {
			off, sparse, head := a.carveFrame(words[:nw], n, anchorElem, nibbleLg, frameForm(words[:nw], n, nibbleLg, true))
			head[anchorElem-1] = int32(*anchor)
			a.stats.NibbleFrames++
			ref := off | nibbleBit
			if sparse {
				ref |= sparseBit
				a.stats.SparseFrames++
			}
			return crNote{index: index, key: prev.key, delta: ref}
		}
		if pack(words[:bw], clk, key, byteLg) {
			// What moved since the key only grows with the clock, so after a
			// dense delta frame over it every one is dense: nothing to count.
			count := *anchor == noDelta || *anchor&sparseBit != 0
			off, sparse, _ := a.carveFrame(words[:bw], n, 0, byteLg, frameForm(words[:bw], n, byteLg, count))
			a.stats.DeltaFrames++
			if *anchor = off; sparse {
				*anchor |= sparseBit
				a.stats.SparseFrames++
			}
			return crNote{index: index, key: prev.key, delta: *anchor}
		}
		raw := prev.key
		if raw&wideBit != 0 {
			raw = uint32(a.chunks.at(raw&offMask - rawElem))
		}
		if pack(words, clk, a.chunks.slice(raw, n), wideLg) {
			if size := frameForm(words, n, wideLg, true); rawElem+size.elems < n {
				off, sparse, head := a.carveFrame(words, n, rawElem, wideLg, size)
				head[rawElem-1] = int32(raw) // carved earlier by this writer [anchor-before-frame]
				a.stats.Keyframes++
				a.stats.WideKeys++
				*anchor = noDelta
				key := off | wideBit
				if sparse {
					key |= sparseBit
				}
				return crNote{index: index, key: key, delta: noDelta}
			}
		}
	}
	at, k := a.carve(n)
	copy(k, clk)
	a.stats.Keyframes++
	*anchor = noDelta
	return crNote{index: index, key: at, delta: noDelta}
}

// pack packs clk - base into words, 1<<lg offsets to an element, and reports
// whether every offset fits its 32>>lg bits. It ORs the offsets together as
// it packs — nearly every element fits, so filling first and testing once per
// element beats a test per component — and stops at the first element
// holding one that does not; an offset too wide spills into its neighbours'
// fields, but then the frame is not kept.
func pack(words, clk, base []int32, lg uint) bool {
	n, width := len(clk), 32>>lg
	base = base[:n]
	full := n >> lg
	var over uint32
	for i := 0; i < full; i++ {
		if lg == nibbleLg {
			c, b := (*[8]int32)(clk[8*i:]), (*[8]int32)(base[8*i:])
			o0, o1, o2, o3 := uint32(c[0]-b[0]), uint32(c[1]-b[1]), uint32(c[2]-b[2]), uint32(c[3]-b[3])
			o4, o5, o6, o7 := uint32(c[4]-b[4]), uint32(c[5]-b[5]), uint32(c[6]-b[6]), uint32(c[7]-b[7])
			over |= o0 | o1 | o2 | o3 | o4 | o5 | o6 | o7
			words[i] = int32(o0 | o1<<4 | o2<<8 | o3<<12 | o4<<16 | o5<<20 | o6<<24 | o7<<28)
		} else if lg == byteLg {
			c, b := (*[4]int32)(clk[4*i:]), (*[4]int32)(base[4*i:])
			o0, o1, o2, o3 := uint32(c[0]-b[0]), uint32(c[1]-b[1]), uint32(c[2]-b[2]), uint32(c[3]-b[3])
			over |= o0 | o1 | o2 | o3
			words[i] = int32(o0 | o1<<8 | o2<<16 | o3<<24)
		} else {
			c, b := (*[2]int32)(clk[2*i:]), (*[2]int32)(base[2*i:])
			o0, o1 := uint32(c[0]-b[0]), uint32(c[1]-b[1])
			over |= o0 | o1
			words[i] = int32(o0 | o1<<16)
		}
		if over >= 1<<width {
			return false
		}
	}
	if full<<lg == n {
		return true
	}
	var word uint32
	for q := full << lg; q < n; q++ {
		o := uint32(clk[q] - base[q])
		over |= o
		word |= o << (width * (q & (1<<lg - 1)))
	}
	words[full] = int32(word)
	return over < 1<<width
}

// frameSize is the form a frame of packed offsets takes: its elements, past
// any header, and whether it is sparse.
type frameSize struct {
	elems  int
	sparse bool
}

// frameForm returns the form of a frame of the packed offsets words over n
// components, 1<<lg to an element. It is sparse when count is set and that is
// strictly smaller: a bitmap word per 32 components and only the nonzero
// offsets, in component order.
func frameForm(words []int32, n int, lg uint, count bool) frameSize {
	fs := frameSize{elems: len(words)}
	if count {
		nz := 0
		for _, w := range words {
			nz += nonzeroFields(uint32(w), lg)
		}
		if s := bitmapWords(n) + packedWords(nz, lg); s < fs.elems {
			fs = frameSize{s, true}
		}
	}
	return fs
}

// carveFrame carves a frame of the packed offsets words over n components in
// the form fs, behind head header elements, and returns its offset past the
// header, its form and the header to fill.
func (a *arena) carveFrame(words []int32, n, head int, lg uint, fs frameSize) (uint32, bool, []int32) {
	at, f := a.carve(head + fs.elems)
	if fs.sparse {
		sparsify(f[head:], bitmapWords(n), words, lg)
	} else {
		copy(f[head:], words)
	}
	return at + uint32(head), fs.sparse, f[:head]
}

// sparsify fills f, carved zeroed, with the sparse form of the packed frame
// words, 1<<lg offsets to an element: the bitmap in f[:bw], then the nonzero
// offsets in component order. It does not branch on an offset, whose pattern
// is the traffic's: each byte of an element is looked up in fieldRuns, and
// its nonzero offsets are added to a 64-bit accumulator at the position p
// past the nonzero ones before it, counted in nibbles, so a zero adds
// nothing; the accumulator hands the stream out an element at a time. A shift
// count masked to its width is one instruction. A 16-bit field spans two
// bytes, which fieldRuns does not tabulate; a 16-bit key is carved seldom, and
// its fields are placed one by one.
func sparsify(f []int32, bw int, words []int32, lg uint) {
	out := f[bw:]
	if lg == wideLg {
		r := 0
		for q := range 2 * len(words) {
			if o := uint32(field(words, q, wideLg)); o != 0 {
				f[q>>5] |= int32(uint32(1) << (q & 31))
				out[r>>1] |= int32(o << (16 * (r & 1)))
				r++
			}
		}
		return
	}
	runs, step := &fieldRuns[lg-byteLg], uint(1)<<(lg-byteLg) // step: fields per byte
	var acc uint64
	p, pos := uint(0), 0
	for i, w := range words {
		u := uint32(w)
		if u == 0 {
			continue
		}
		e0, e1, e2, e3 := runs[u&0xff], runs[u>>8&0xff], runs[u>>16&0xff], runs[u>>24]
		acc |= uint64(e0&0xff) << (4 * p & 63)
		p += uint(e0 >> 8 & 3)
		acc |= uint64(e1&0xff) << (4 * p & 63)
		p += uint(e1 >> 8 & 3)
		acc |= uint64(e2&0xff) << (4 * p & 63)
		p += uint(e2 >> 8 & 3)
		acc |= uint64(e3&0xff) << (4 * p & 63)
		p += uint(e3 >> 8 & 3)
		moved := uint32(e0>>10) | uint32(e1>>10)<<(step&7) | uint32(e2>>10)<<(2*step&7) | uint32(e3>>10)<<(3*step&7)
		f[i>>(5-lg&7)] |= int32(moved << (uint(i) << (lg & 7) & 31))
		out[pos] = int32(uint32(acc)) // p > 0 nibbles are pending, all of them counted in f: pos is in range
		adv := p >> 3
		pos += int(adv)
		acc >>= 32 * adv & 63
		p &= 7
	}
	if p > 0 {
		out[pos] = int32(uint32(acc))
	}
}

// fieldRuns holds, for the elements of a frame of bytes and of nibbles, what
// each byte value b of an element adds to the sparse form: the fields of b
// that are not zero, packed low first (bits 0–7), how many nibbles they take
// (bits 8–9) and which of b's fields they are (bits 10–11).
var fieldRuns = func() (t [2][256]uint16) {
	for b := range 256 {
		if b != 0 {
			t[0][b] = uint16(b) | 2<<8 | 1<<10
		}
		var run, nibbles, moved uint16
		for k, v := range [2]uint16{uint16(b & 15), uint16(b >> 4)} {
			if v != 0 {
				run |= v << (4 * nibbles)
				nibbles++
				moved |= 1 << k
			}
		}
		t[1][b] = run | nibbles<<8 | moved<<10
	}
	return t
}()

// projKey is a process's projection state: where its current keyframe's raw
// components lie and the epoch it is over — the writer's copy of the keyframe's
// epoch element — its anchor, the offset of its latest byte frame over that
// keyframe (the keyframe's own zero frame until it carves one), and last, the
// frame of its latest projection, which is what the cell of an event that
// changed no component but the own names again while live — no noted cluster
// receive came since. Writer-private, 20 bytes per process; the zero value is
// no keyframe yet, epoch 0 being no projection's.
type projKey struct {
	at, ep, anchor, last uint32
	live                 bool
}

// project stores the projection of clk over members, the cluster of epoch ep,
// for the process whose projection state is cur, and returns the offset of its
// frame, now the process's last. While the epoch is the same it packs, in one
// pass over the members into the arena's scratch, the bytes over the keyframe
// and the nibbles over the anchor, ORing each kind together as it goes, and
// then carves once, the first form that fits (see "Layout"):
//
//   - a nibble frame over the anchor, while every member is within 15 of it;
//     its header is the anchor's offset with projNibbleBit set — the one
//     writer of that bit;
//   - a byte frame over the keyframe, while every member is within 255 of it;
//     it becomes the anchor;
//   - a keyframe, carved in one piece behind its epoch element and together
//     with its own all-zero frame, which becomes the anchor — the one writer of
//     an epoch element. A new epoch always starts one.
//
// Nothing is carved for a form that does not fit. A process's clocks only
// grow, so no offset is negative; as a uint32 it would fail the test all the
// same. The caller passes the process's own component as zero (lane.stamp):
// it is the event's index, which the cell's slot already says, so it neither
// is stored nor can outgrow a nibble.
func (a *arena) project(cur *projKey, ep uint32, clk []int32, members []int32) uint32 {
	n := len(members)
	w, nw := packedWords(n, byteLg), packedWords(n, nibbleLg)
	if cur.ep == ep {
		if cap(a.spare) < w+nw {
			a.spare = make([]int32, w+nw)
		}
		bytes, nibs := a.spare[:w], a.spare[w:w+nw]
		key, anchor := a.chunks.slice(cur.at, n), a.chunks.slice(cur.anchor+1, w)
		var over, nover, word, nword uint32
		for k, q := range members {
			off := uint32(clk[q] - key[k])
			nib := off - uint32(field(anchor, k, byteLg))
			over, nover = over|off, nover|nib
			word |= off << (8 * (k & 3))
			nword |= nib << (4 * (k & 7))
			if k&3 == 3 {
				bytes[k>>2], word = int32(word), 0
			}
			if k&7 == 7 {
				nibs[k>>3], nword = int32(nword), 0
			}
		}
		if n&3 != 0 {
			bytes[w-1] = int32(word)
		}
		if n&7 != 0 {
			nibs[nw-1] = int32(nword)
		}
		if nover <= 15 {
			at, f := a.carve(1 + nw)
			f[0] = int32(cur.anchor | projNibbleBit)
			copy(f[1:], nibs)
			cur.last, cur.live = at, true
			a.stats.ProjNibbleFrames++
			return at
		}
		if over <= 255 {
			at, f := a.carve(1 + w)
			f[0] = int32(cur.at)
			copy(f[1:], bytes)
			cur.anchor, cur.last, cur.live = at, at, true
			a.stats.ProjFrames++
			return at
		}
	}
	at, kf := a.carve(epochElem + n + 1 + w)
	kf[epochElem-1] = int32(ep)
	at += epochElem
	key := kf[epochElem:]
	for k, q := range members {
		key[k] = clk[q]
	}
	key[n] = int32(at)
	zero := at + uint32(n)
	*cur = projKey{at: at, ep: ep, anchor: zero, last: zero, live: true}
	a.stats.ProjKeyframes++
	return zero
}

// appendNote stores clk as the next noted cluster receive of the process
// notes belongs to — a frame over the process's current key, the key of its
// previous note, or a new key (arena.frame) — publishes the note and returns
// its slot, which never moves. Writer only.
func appendNote(notes *crColumn, a *arena, index int32, clk []int32) int32 {
	slot := notes.n
	notes.append(a.frame(index, notes.last(), &notes.anchor, clk))
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
