package wal

// On-disk format of the monitor's write-ahead log, and its encoders. All
// integers are big-endian, matching the wire protocol. The bytes are read
// back in one place, chain.go: recovery, replay, compaction and the
// read-only chain share its scan, and decodeRun below is the one event
// decoder it calls.
//
// A WAL directory holds segment files and snapshot files:
//
//	wal-<base>.log    log segment; <base> is the 16-hex-digit global event
//	                  offset of the segment's first event
//	snap-<count>.snap sealed snapshot of the first <count> delivered events
//	snap-<count>.tmp  snapshot being written (deleted at open)
//
// Both file kinds open with a 24-byte header:
//
//	[magic:8]["POETWAL1" | "POETSNAP"]
//	[n:8]    segment: base event offset; snapshot: event count
//	[procs:4] process count of the monitored computation
//	[crc:4]  CRC-32C of the preceding 20 bytes
//
// After the header both kinds carry a sequence of records, each one
// deliverable run (the batch the collector handed to Monitor.DeliverBatch):
//
//	[payloadLen:4][crc:4][payload: count:4, then count event records]
//
// where an event record is the EVENTS wire shape: kind u8, proc u32,
// index u32, then partnerProc u32, partnerIndex u32 unless unary. The CRC
// is CRC-32C over the payload. Records are the unit of atomicity: recovery
// never splits a run (so sync pairs, delivered back to back within one run,
// are recovered together or not at all).
//
// A snapshot is terminated by a 16-byte seal:
//
//	[0xFFFFFFFF:4][count:8][crc:4 over the count bytes]
//
// The seal marker can never open a record (payload lengths are capped far
// below it), so a reader knows a snapshot is complete — a snapshot without
// a valid seal is a crashed compaction and is ignored. Segments have no
// seal: their end is wherever valid records stop, and a torn or corrupt
// tail of the final segment (a crash mid-write) is truncated at open, once
// the whole chain has been accepted.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/model"
)

const (
	segMagic  = "POETWAL1"
	snapMagic = "POETSNAP"

	fileHeaderLen   = 24
	recordHeaderLen = 8
	sealLen         = 16
	sealMarker      = 0xFFFFFFFF

	// maxRecordPayload caps one record's payload. Anything larger is treated
	// as corruption; AppendRun splits oversized runs below this.
	maxRecordPayload = 1 << 26

	eventRecMin  = 1 + 4 + 4
	eventRecFull = eventRecMin + 4*2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// encodeRecord frames one run as a complete record into buf (which should
// be sliced to zero length) and returns the grown buffer.
func encodeRecord(buf []byte, events []model.Event) []byte {
	buf = append(buf, make([]byte, recordHeaderLen)...)
	start := len(buf)
	buf = appendU32(buf, uint32(len(events)))
	for _, e := range events {
		buf = append(buf, byte(e.Kind))
		buf = appendU32(buf, uint32(e.ID.Process))
		buf = appendU32(buf, uint32(e.ID.Index))
		if e.Kind != model.Unary {
			buf = appendU32(buf, uint32(e.Partner.Process))
			buf = appendU32(buf, uint32(e.Partner.Index))
		}
	}
	payload := buf[start:]
	binary.BigEndian.PutUint32(buf[start-recordHeaderLen:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start-recordHeaderLen+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeRun parses a record payload into events, appending to dst.
func decodeRun(dst []model.Event, p []byte) ([]model.Event, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("wal: run payload truncated")
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint64(count)*eventRecMin > uint64(len(p)) {
		return dst, fmt.Errorf("wal: run count %d larger than payload", count)
	}
	for i := uint32(0); i < count; i++ {
		if len(p) < eventRecMin {
			return dst, fmt.Errorf("wal: event %d truncated", i)
		}
		kind := model.Kind(p[0])
		if kind > model.Sync {
			return dst, fmt.Errorf("wal: event %d: unknown kind %d", i, p[0])
		}
		e := model.Event{Kind: kind}
		e.ID.Process = model.ProcessID(binary.BigEndian.Uint32(p[1:]))
		e.ID.Index = model.EventIndex(binary.BigEndian.Uint32(p[5:]))
		p = p[eventRecMin:]
		if kind != model.Unary {
			if len(p) < 8 {
				return dst, fmt.Errorf("wal: event %d: partner truncated", i)
			}
			e.Partner.Process = model.ProcessID(binary.BigEndian.Uint32(p))
			e.Partner.Index = model.EventIndex(binary.BigEndian.Uint32(p[4:]))
			p = p[8:]
		}
		dst = append(dst, e)
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("wal: run payload has %d trailing bytes", len(p))
	}
	return dst, nil
}

// writeFileHeader emits the 24-byte header of a segment or snapshot.
func writeFileHeader(w io.Writer, magic string, n uint64, numProcs int) error {
	buf := make([]byte, 0, fileHeaderLen)
	buf = append(buf, magic...)
	buf = appendU64(buf, n)
	buf = appendU32(buf, uint32(numProcs))
	buf = appendU32(buf, crc32.Checksum(buf, crcTable))
	_, err := w.Write(buf)
	return err
}

// writeSeal emits a snapshot seal for count events.
func writeSeal(w io.Writer, count uint64) error {
	buf := make([]byte, 0, sealLen)
	buf = appendU32(buf, sealMarker)
	buf = appendU64(buf, count)
	buf = appendU32(buf, crc32.Checksum(buf[4:12], crcTable))
	_, err := w.Write(buf)
	return err
}
