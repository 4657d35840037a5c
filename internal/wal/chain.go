package wal

// The one reader of a WAL directory. Everything that looks at the log's
// bytes — recovery (Open), Log.Replay, compaction's snapshot writer, and the
// replay plane's read-only OpenChain — goes through this file: scanChain
// lists the directory and applies its rules once, openChainPart maps and
// validates one file, scanChainBody CRC-checks its records, ReplayRange
// decodes them.
//
// scanChain never writes to a log or snapshot file, so it can read the
// directory of a live daemon (or a cold copy) while appends, rotations and
// compactions keep running:
//
//   - sealed files are memory-mapped and immutable; a mapping survives the
//     unlink a concurrent compaction issues, so views outlive rotations;
//   - the active segment's valid prefix is captured at open — a record the
//     writer has half-flushed fails its CRC and simply bounds the prefix
//     (the chain never surfaces a torn record, and never reads past it);
//   - files that vanish between the directory listing and the open lost a
//     race with compaction; OpenChain rescans and retries.
//
// What a crash can leave behind is classified, not acted on: the scan lists
// the leftovers it skipped and the final segment's valid length, and Open
// removes and truncates only after the whole chain has been accepted. A
// directory the scan refuses is returned exactly as it was found.
//
// OpenChain also maintains index sidecars (wal-<base>.idx / snap-<count>.idx):
// a cached record index mapping event-count cutoffs to byte offsets, written
// once a part is known sealed. A sidecar lets a later OpenChain skip the
// full CRC scan of a sealed multi-gigabyte part and lets ReplayRange seek to
// an event cutoff in O(log records). Sidecars are a pure cache: they are
// validated against the source file's identity (header CRC, size) and
// rebuilt by scanning whenever anything mismatches, and the writer deletes
// them alongside their source during compaction. They are written through
// the same commit as a snapshot, without its fsyncs: a sidecar a crash loses
// is a cache miss. Recovery and compaction neither read nor write them:
// every record they keep is CRC-checked.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/model"
)

// ChainOptions configures a read-only chain open.
type ChainOptions struct {
	// NumProcs, when positive, is enforced against every file header.
	// Zero adopts the process count recorded in the chain itself.
	NumProcs int
}

// recEntry locates one record of a chain part: the byte offset of its
// record header and the number of events in the part before it.
type recEntry struct {
	off   int64
	event uint64
}

// chainPart is one validated, memory-mapped file of a chain.
type chainPart struct {
	path     string
	snapshot bool
	base     uint64 // global offset of the part's first event (snapshot: 0)
	events   uint64 // events in the valid prefix
	validLen int64  // bytes of the valid prefix, header included
	data     []byte // the valid prefix; nothing past validLen is ever read
	unmap    func() error
	recs     []recEntry
	torn     bool // scan stopped at a torn or corrupt tail record
}

// Chain is a read-only view of a WAL directory's event history: the newest
// sealed snapshot (if any) plus the segment tail, validated and mapped.
// A Chain is immutable after OpenChain; reopen to observe later appends.
type Chain struct {
	fsys     fileSystem
	numProcs int
	parts    []*chainPart // snapshot first (if any), then segments by base
	events   uint64
	snapped  uint64 // events covered by the snapshot part
	torn     bool   // the final segment ends in a torn or corrupt record

	// leftovers are the files the scan classified as crash debris and kept
	// out of the chain; Open removes them once the chain is accepted.
	leftovers []string
}

// OpenChain opens dir read-only and validates its snapshot + segment chain.
// It retries when files vanish mid-scan (a concurrent compaction winning
// the race). The returned chain is a consistent prefix of the delivered
// sequence as of some instant during the call.
func OpenChain(dir string, opts ChainOptions) (*Chain, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		c, err := scanChain(osFS{}, dir, opts.NumProcs, true)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wal: chain kept changing during open: %w", lastErr)
}

// scanChain lists dir once and applies the directory's rules, mapping and
// validating every part it keeps. numProcs is enforced when positive and
// adopted from the headers when zero; sidecars lets parts that cannot grow
// use and cache an index sidecar (the final segment is always scanned). It
// removes and truncates nothing.
//
// A file is a crash leftover — skipped, and listed for Open to remove — when
// it is something an interrupted compaction, rotation or cache write leaves
// behind while the events it held are still covered elsewhere:
//
//   - any .tmp file;
//   - a snapshot whose header is short or fails its CRC, or whose body has
//     a failed record CRC or no seal agreeing with header and content
//     (compaction seals last and deletes its inputs after);
//   - every snapshot older than the newest sealed one;
//   - a segment the snapshot wholly covers (compaction's undeleted input);
//   - a final segment whose header is short or fails its CRC (a rotation
//     that never reached the disk: the husk holds no events);
//   - an .idx sidecar whose source is not part of the chain.
//
// The final segment alone may end in a torn record (a crash mid-append, or
// an append in flight): its valid prefix is kept and the chain reports Torn.
//
// Everything else that is wrong is a refusal, and the error is returned with
// the directory untouched: a file that cannot be opened, mapped or is not a
// regular file; an intact header with the wrong magic, the wrong process
// count, or a count or base that disagrees with the file name (that file was
// never this log's, or these options are not this log's); a damaged header
// or a bad record in a segment rotation had sealed; a gap between the
// snapshot and the first segment, or between segments; a segment that
// overlaps the one before it. A damaged snapshot whose events the segments
// no longer hold therefore ends the scan in a gap: it is refused, and kept.
func scanChain(fsys fileSystem, dir string, numProcs int, sidecars bool) (c *Chain, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c = &Chain{fsys: fsys, numProcs: numProcs}
	chain := c // the named return is nil on error paths; unmap via this ref
	defer func() {
		if err != nil {
			chain.Close()
		}
	}()

	var snapCounts, segBases []uint64
	var idxNames []string
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			c.leftovers = append(c.leftovers, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".idx"):
			idxNames = append(idxNames, name)
		default:
			if n, ok := parseHexName(name, "snap-", ".snap"); ok {
				snapCounts = append(snapCounts, n)
			} else if b, ok := parseHexName(name, "wal-", ".log"); ok {
				segBases = append(segBases, b)
			}
		}
	}
	sort.Slice(snapCounts, func(i, j int) bool { return snapCounts[i] > snapCounts[j] })
	sort.Slice(segBases, func(i, j int) bool { return segBases[i] < segBases[j] })

	for _, n := range snapCounts {
		path := filepath.Join(dir, snapName(n))
		if len(c.parts) > 0 {
			c.leftovers = append(c.leftovers, path) // older than the winner
			continue
		}
		part, perr := openChainPart(c, path, true, n, sidecars)
		if isDamage(perr) {
			c.leftovers = append(c.leftovers, path)
			continue
		}
		if perr != nil {
			return nil, perr
		}
		c.keep(part)
	}

	for i, b := range segBases {
		path := filepath.Join(dir, segName(b))
		last := i == len(segBases)-1
		part, perr := openChainPart(c, path, false, b, sidecars && !last)
		if last && isDamage(perr) {
			c.leftovers = append(c.leftovers, path)
			c.torn = true
			continue
		}
		if perr != nil {
			return nil, perr
		}
		if part.torn {
			if !last {
				part.close()
				return nil, fmt.Errorf("wal: %s: corrupt record at offset %d inside sealed segment", path, part.validLen)
			}
			c.torn = true
		}
		if part.base < c.snapped && part.base+part.events <= c.snapped {
			part.close()
			c.leftovers = append(c.leftovers, path)
			continue
		}
		if part.base > c.events {
			part.close()
			return nil, fmt.Errorf("wal: gap: chain covers %d events but segment %s starts at %d", c.events, path, part.base)
		}
		if part.base < c.events && !c.parts[len(c.parts)-1].snapshot {
			part.close()
			return nil, fmt.Errorf("wal: overlap: segment %s starts at %d but the one before it ends at %d", path, part.base, c.events)
		}
		c.keep(part)
	}

	kept := make(map[string]bool, len(c.parts))
	for _, p := range c.parts {
		kept[sidecarPath(p.path)] = true
	}
	for _, name := range idxNames {
		_, seg := parseHexName(name, "wal-", ".idx")
		_, snap := parseHexName(name, "snap-", ".idx")
		if path := filepath.Join(dir, name); (seg || snap) && !kept[path] {
			c.leftovers = append(c.leftovers, path)
		}
	}
	return c, nil
}

// keep appends a validated part to the chain.
func (c *Chain) keep(p *chainPart) {
	c.parts = append(c.parts, p)
	c.events = p.base + p.events
	if p.snapshot {
		c.snapped = p.events
	}
}

// damageError marks a file as crash damage rather than a foreign or corrupt
// one: a header that never fully reached the disk (short, or failing its
// CRC), or a snapshot body without a valid seal. scanChain turns it into a
// leftover where a crash can explain it and into a refusal where it cannot.
type damageError struct{ err error }

func (e *damageError) Error() string { return e.err.Error() }
func (e *damageError) Unwrap() error { return e.err }

func isDamage(err error) bool {
	var d *damageError
	return errors.As(err, &d)
}

// parseHeaderBytes validates a 24-byte file header held in data. A short or
// CRC-failing header is damage; a well-formed one with the wrong magic is a
// hard error — that file was never ours.
func parseHeaderBytes(data []byte, magic string) (n uint64, procs int, err error) {
	if len(data) < fileHeaderLen {
		return 0, 0, &damageError{fmt.Errorf("short header (%d bytes)", len(data))}
	}
	if crc32.Checksum(data[:20], crcTable) != binary.BigEndian.Uint32(data[20:]) {
		return 0, 0, &damageError{errors.New("header checksum mismatch")}
	}
	if string(data[:8]) != magic {
		return 0, 0, fmt.Errorf("bad magic %q, want %q", data[:8], magic)
	}
	return binary.BigEndian.Uint64(data[8:]), int(binary.BigEndian.Uint32(data[16:])), nil
}

// openChainPart maps one file and validates it: header identity against the
// name and c.numProcs (enforced when set, adopted when zero), then the body,
// via its sidecar when sidecars allows one and it matches, else by a full
// CRC scan (whose index sidecars then caches). A segment's bad tail is
// reported as part.torn, not as an error; a snapshot must be sealed.
func openChainPart(c *Chain, path string, snapshot bool, wantN uint64, sidecars bool) (*chainPart, error) {
	data, unmap, err := c.fsys.Map(path)
	if err != nil {
		return nil, err
	}
	part := &chainPart{path: path, snapshot: snapshot, data: data, unmap: unmap}
	magic := segMagic
	if snapshot {
		magic = snapMagic
	}
	n, procs, err := parseHeaderBytes(data, magic)
	switch {
	case err != nil:
		err = fmt.Errorf("wal: %s: %w", path, err)
	case n != wantN:
		err = fmt.Errorf("wal: %s: header records %d, name says %d", path, n, wantN)
	case c.numProcs > 0 && procs != c.numProcs:
		err = fmt.Errorf("wal: %s: logged for %d processes, opened for %d", path, procs, c.numProcs)
	}
	if err != nil {
		part.close()
		return nil, err
	}
	if !snapshot {
		part.base = n
	}

	if !sidecars || !loadSidecar(c.fsys, part, snapshot) {
		recs, events, validLen, sealCount, isSealed, torn := scanChainBody(data, snapshot)
		if snapshot && (!isSealed || sealCount != n || events != n) {
			part.close()
			return nil, &damageError{fmt.Errorf("wal: %s: unsealed or corrupt snapshot (sealed=%v seal=%d header=%d events=%d)",
				path, isSealed, sealCount, n, events)}
		}
		part.recs, part.events, part.validLen, part.torn = recs, events, validLen, torn
		if sidecars && !torn {
			writeSidecar(c.fsys, part, snapshot) // best effort: a cache miss next time
		}
		part.data = data[:validLen]
	}
	c.numProcs = procs
	return part, nil
}

// scanChainBody walks the records of a mapped part, validating framing and
// CRCs, and builds the record index. It never fails: invalid data bounds
// the valid prefix (torn=true for segments; snapshots additionally require
// the seal, checked by the caller via sealed/sealCount).
func scanChainBody(data []byte, snapshot bool) (recs []recEntry, events uint64, validLen int64, sealCount uint64, sealed, torn bool) {
	off := int64(fileHeaderLen)
	if int64(len(data)) < off {
		return nil, 0, int64(len(data)), 0, false, true
	}
	for {
		rem := int64(len(data)) - off
		if rem == 0 {
			return recs, events, off, 0, false, false
		}
		if rem < recordHeaderLen {
			return recs, events, off, 0, false, true
		}
		n := binary.BigEndian.Uint32(data[off:])
		if n == sealMarker {
			if !snapshot || rem < sealLen {
				return recs, events, off, 0, false, true
			}
			count := binary.BigEndian.Uint64(data[off+4:])
			crc := binary.BigEndian.Uint32(data[off+12:])
			if crc32.Checksum(data[off+4:off+12], crcTable) != crc {
				return recs, events, off, 0, false, true
			}
			return recs, events, off + sealLen, count, true, false
		}
		if n < 4 || n > maxRecordPayload || rem < recordHeaderLen+int64(n) {
			return recs, events, off, 0, false, true
		}
		payload := data[off+recordHeaderLen : off+recordHeaderLen+int64(n)]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[off+4:]) {
			return recs, events, off, 0, false, true
		}
		count := binary.BigEndian.Uint32(payload)
		if uint64(count)*eventRecMin > uint64(n-4) {
			return recs, events, off, 0, false, true
		}
		recs = append(recs, recEntry{off: off, event: events})
		events += uint64(count)
		off += recordHeaderLen + int64(n)
	}
}

func (p *chainPart) close() {
	if p.unmap != nil {
		p.unmap()
		p.unmap = nil
	}
	p.data = nil
}

// NumProcs returns the chain's process count (from ChainOptions or adopted
// from the file headers; 0 for an empty chain opened without one).
func (c *Chain) NumProcs() int { return c.numProcs }

// Events returns the number of events the chain can replay.
func (c *Chain) Events() uint64 { return c.events }

// Close releases the mappings. Views that copied data out remain valid.
func (c *Chain) Close() error {
	for _, p := range c.parts {
		p.close()
	}
	c.parts = nil
	return nil
}

// RunBoundaries returns the ascending global event counts at which a
// delivered run (one WAL record) ends. Compaction preserves record
// batching, so these are the original delivery-run boundaries — the natural
// cutoffs for replay. The final boundary equals Events() unless the chain
// is empty.
func (c *Chain) RunBoundaries() []uint64 {
	var out []uint64
	covered := uint64(0)
	for _, p := range c.parts {
		for k := range p.recs {
			end := p.base + p.events
			if k+1 < len(p.recs) {
				end = p.base + p.recs[k+1].event
			}
			if end > covered {
				out = append(out, end)
				covered = end
			}
		}
	}
	return out
}

// ReplayRange streams events with global positions in [from, to) to fn in
// their original run batching (the first and last runs are clipped as
// needed). The batch slice is reused between calls. ReplayRange is
// read-only and safe for concurrent use by independent callers.
func (c *Chain) ReplayRange(from, to uint64, fn func(batch []model.Event) error) error {
	if to > c.events {
		return fmt.Errorf("wal: replay to %d, chain has %d events", to, c.events)
	}
	pos := from
	var batch []model.Event
	for _, p := range c.parts {
		partEnd := p.base + p.events
		if partEnd <= pos || len(p.recs) == 0 {
			continue
		}
		if p.base >= to {
			break
		}
		// Seek to the record containing pos.
		k := sort.Search(len(p.recs), func(i int) bool { return p.base+p.recs[i].event > pos })
		if k > 0 {
			k--
		}
		for ; k < len(p.recs); k++ {
			rec := p.recs[k]
			recStart := p.base + rec.event
			if recStart >= to {
				break
			}
			n := binary.BigEndian.Uint32(p.data[rec.off:])
			payload := p.data[rec.off+recordHeaderLen : rec.off+recordHeaderLen+int64(n)]
			var err error
			batch, err = decodeRun(batch[:0], payload)
			if err != nil {
				return fmt.Errorf("wal: %s: %w", p.path, err)
			}
			recEnd := recStart + uint64(len(batch))
			lo, hi := uint64(0), uint64(len(batch))
			if recStart < pos {
				lo = pos - recStart
			}
			if recEnd > to {
				hi -= recEnd - to
			}
			if lo < hi {
				if err := fn(batch[lo:hi]); err != nil {
					return err
				}
			}
			if recEnd < to {
				pos = recEnd
			} else {
				return nil
			}
		}
	}
	if pos < to {
		return fmt.Errorf("wal: chain ran out at %d of requested %d events", pos, to)
	}
	return nil
}

// --- index sidecars -------------------------------------------------------

const (
	sidecarMagic   = "POETWIDX"
	sidecarVersion = 1
)

// sidecarPath returns the .idx twin of a segment or snapshot path.
func sidecarPath(path string) string {
	path = strings.TrimSuffix(strings.TrimSuffix(path, ".log"), ".snap")
	return path + ".idx"
}

// removeWithSidecar deletes a chain file together with its index sidecar.
// Compaction's cleanup uses it so sidecars never outlive their source.
func removeWithSidecar(fsys fileSystem, path string) {
	fsys.Remove(path)
	fsys.Remove(sidecarPath(path))
}

// loadSidecar adopts a cached record index if it matches the (sealed)
// source part exactly: same header identity, same byte length. Any
// mismatch means "cache miss" — the caller rescans.
func loadSidecar(fsys fileSystem, part *chainPart, snapshot bool) bool {
	raw, err := fsys.ReadFile(sidecarPath(part.path))
	if err != nil || len(raw) < 8+1+1+4+8+4+8+8+4+4 {
		return false
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(tail) {
		return false
	}
	if string(body[:8]) != sidecarMagic || body[8] != sidecarVersion {
		return false
	}
	kind := byte(0)
	if snapshot {
		kind = 1
	}
	if body[9] != kind {
		return false
	}
	p := body[10:]
	srcHdrCRC := binary.BigEndian.Uint32(p)
	n := binary.BigEndian.Uint64(p[4:])
	procs := binary.BigEndian.Uint32(p[12:])
	validLen := int64(binary.BigEndian.Uint64(p[16:]))
	events := binary.BigEndian.Uint64(p[24:])
	records := binary.BigEndian.Uint32(p[32:])
	p = p[36:]
	if uint64(len(p)) != uint64(records)*16 {
		return false
	}
	// Bind to the source: header identity and exact sealed length.
	if len(part.data) < fileHeaderLen ||
		binary.BigEndian.Uint32(part.data[20:]) != srcHdrCRC ||
		binary.BigEndian.Uint64(part.data[8:]) != n ||
		binary.BigEndian.Uint32(part.data[16:]) != procs ||
		int64(len(part.data)) != validLen {
		return false
	}
	recs := make([]recEntry, records)
	for i := range recs {
		recs[i].off = int64(binary.BigEndian.Uint64(p))
		recs[i].event = binary.BigEndian.Uint64(p[8:])
		p = p[16:]
		if recs[i].off < fileHeaderLen || recs[i].off >= validLen {
			return false
		}
	}
	part.recs, part.events, part.validLen = recs, events, validLen
	return true
}

// writeSidecar persists a part's record index next to it, atomically
// (tmp + rename, no fsync). Failures are ignored: the sidecar is a cache.
func writeSidecar(fsys fileSystem, part *chainPart, snapshot bool) {
	if int64(len(part.data)) != part.validLen {
		// Only seal-exact parts are cacheable (the load path requires it).
		return
	}
	kind := byte(0)
	if snapshot {
		kind = 1
	}
	buf := make([]byte, 0, 8+1+1+36+len(part.recs)*16+4)
	buf = append(buf, sidecarMagic...)
	buf = append(buf, sidecarVersion, kind)
	buf = appendU32(buf, binary.BigEndian.Uint32(part.data[20:]))
	buf = appendU64(buf, binary.BigEndian.Uint64(part.data[8:]))
	buf = appendU32(buf, binary.BigEndian.Uint32(part.data[16:]))
	buf = appendU64(buf, uint64(part.validLen))
	buf = appendU64(buf, part.events)
	buf = appendU32(buf, uint32(len(part.recs)))
	for _, r := range part.recs {
		buf = appendU64(buf, uint64(r.off))
		buf = appendU64(buf, r.event)
	}
	buf = appendU32(buf, crc32.Checksum(buf, crcTable))

	final := sidecarPath(part.path)
	commitFile(fsys, final+".tmp", final, false, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}
