package monitor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/model"
)

// This file holds the framing and payload encodings of protocol v2, the
// length-prefixed binary protocol of the monitoring server and its only wire
// format; server.go maps frames to requests and replies to frames.
//
// Handshake: a client opens with the 7-byte magic
//
//	0x00 'P' 'O' 'E' 'T' '2' '\n'
//
// and the server drops a connection that opens with anything else. The
// server answers with HELLO, or — at its connection limit — with one ERR
// frame ("server full") before it closes.
//
// After the magic every message in both directions is a frame:
//
//	[type:1][payloadLen:4 BE][payload:payloadLen]
//
// Frame types and payloads (all integers big-endian):
//
//	HELLO  s->c  version u8, numProcs u32, maxBatch u32
//	EVENTS c->s  count u32, then count records:
//	               kind u8 (0 unary, 1 send, 2 receive, 3 sync),
//	               proc u32, index u32,
//	               partnerProc u32, partnerIndex u32 (absent for unary)
//	ACK    s->c  accepted u32            (EVENTS batch fully applied)
//	QUERY  c->s  count u32, then count records:
//	               op u8 (0 precedes, 1 concurrent),
//	               aProc u32, aIndex u32, bProc u32, bIndex u32
//	RESULTS s->c count u32, then count result bytes
//	               (0 false, 1 true, 2 error)
//	QUERY@ c->s  cutoff u64, then the QUERY encoding: count u32 + records.
//	               Answered from the replay plane's view of recorded history
//	               as of the first `cutoff` events (cutoff 2^64-1 = latest
//	               recorded); RESULTS come back as for QUERY. Rejected with
//	               ERR when the server has no replay plane, when the cutoff
//	               is past recorded history, and when it names events that
//	               are recorded but not in the live store.
//	STATS  c->s  empty
//	STATSR s->c  the STATS body as text: key=value fields
//	               ("events=... crs=... ... tenant=... tenants=...")
//	ERR    s->c  utf-8 message           (frame rejected; connection lives)
//	QUIT   c->s  empty
//	BYE    s->c  empty                   (connection closes)
//	TENANT c->s  utf-8 namespace name. Scopes the connection: every
//	               subsequent EVENTS/QUERY/QUERY@/STATS frame routes to that
//	               tenant's store. Acknowledged with ACK(0) on success, ERR
//	               on an unknown/invalid name or an exhausted tenant quota
//	               (the connection stays scoped as before and lives on). A
//	               connection that never sends TENANT speaks to the
//	               "default" tenant, which keeps pre-tenant clients
//	               byte-compatible.
//
// Decoding is strict and canonical: a payload must be consumed exactly, so
// every accepted payload re-encodes to identical bytes (the fuzz harness
// asserts this round-trip).
//
// A batch decoder writes into a destination its caller owns and returns it
// regrown if the batch needed more room; every record is written whole, so
// what the buffer held before — a refused payload's records included — is
// never part of a later result. The server decodes every batch frame into
// such a buffer, and encodes RESULTS and ACK payloads by appending to one
// (DESIGN.md §7).

// protocolV2Magic opens a connection.
var protocolV2Magic = [7]byte{0x00, 'P', 'O', 'E', 'T', '2', '\n'}

// protocolV2Version is the protocol revision announced in HELLO.
const protocolV2Version = 2

// Frame types.
const (
	frameHello   byte = 0x01
	frameEvents  byte = 0x02
	frameAck     byte = 0x03
	frameQuery   byte = 0x04
	frameResults byte = 0x05
	frameStats   byte = 0x06
	frameStatsR  byte = 0x07
	frameErr     byte = 0x08
	frameQuit    byte = 0x09
	frameBye     byte = 0x0a
	frameQueryAt byte = 0x0b
	frameTenant  byte = 0x0c
)

// maxFramePayload is the hard framing cap. A frame claiming more than this
// is unrecoverable (the stream offset is lost) and closes the connection.
const maxFramePayload = 1 << 24

// Result codes carried by RESULTS frames.
const (
	resultFalse byte = 0
	resultTrue  byte = 1
	resultErr   byte = 2
)

// Sizes of the fixed-width record encodings.
const (
	eventRecMin  = 1 + 4 + 4         // unary: kind, proc, index
	eventRecFull = eventRecMin + 4*2 // with partner
	queryRec     = 1 + 4*4           // op, a, b
)

// writeFrame emits one frame. The payload may be nil for empty frames. The
// header goes into a *bufio.Writer a byte at a time, so no part of the frame
// passes through an interface and the server's and the client's writers
// allocate nothing per frame; any other writer is wrapped in one for the call.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	bw, buffered := w.(*bufio.Writer)
	if !buffered {
		bw = bufio.NewWriterSize(w, 16)
	}
	n := len(payload)
	for _, b := range [5]byte{typ, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)} {
		bw.WriteByte(b)
	}
	_, err := bw.Write(payload) // a bufio.Writer's error is sticky: this reports the header's too
	if err == nil && !buffered {
		err = bw.Flush()
	}
	return err
}

// readFrame reads one frame into a payload slice of its own, enforcing the
// framing cap.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	return readFrameInto(r, nil)
}

// readFrameInto is readFrame with the payload read into buf's backing array
// when the frame fits its capacity (a fresh slice otherwise), for a caller
// that is done with one payload before it reads the next. The header is read
// in place in r's buffer.
func readFrameInto(r *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	hdr, err := r.Peek(5)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	r.Discard(5)
	if n > maxFramePayload {
		return 0, nil, frameTooLarge(n)
	}
	if n > 0 {
		if uint32(cap(buf)) >= n {
			payload = buf[:n]
		} else {
			payload = make([]byte, n)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return typ, payload, nil
}

// frameTooLarge is readFrameInto's one framing error: a length prefix past
// maxFramePayload. Every other error it returns comes from the transport.
type frameTooLarge uint32

func (n frameTooLarge) Error() string {
	return fmt.Sprintf("monitor: frame payload %d exceeds cap %d", uint32(n), maxFramePayload)
}

// appendU32 appends v big-endian.
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// encodeEventsPayload serializes a batch of event records canonically.
func encodeEventsPayload(events []model.Event) []byte {
	b := make([]byte, 0, 4+len(events)*eventRecFull)
	b = appendU32(b, uint32(len(events)))
	for _, e := range events {
		b = append(b, byte(e.Kind))
		b = appendU32(b, uint32(e.ID.Process))
		b = appendU32(b, uint32(e.ID.Index))
		if e.Kind != model.Unary {
			b = appendU32(b, uint32(e.Partner.Process))
			b = appendU32(b, uint32(e.Partner.Index))
		}
	}
	return b
}

// decodeEventsPayload parses an EVENTS payload into dst's backing array,
// growing it if the batch needs more room, and returns the batch; on an error
// it returns dst emptied. maxBatch <= 0 means unlimited. The payload must be
// consumed exactly.
func decodeEventsPayload(dst []model.Event, p []byte, maxBatch int) ([]model.Event, error) {
	events := dst[:0]
	if len(p) < 4 {
		return events, fmt.Errorf("monitor: EVENTS payload truncated")
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if maxBatch > 0 && count > uint32(maxBatch) {
		return events, fmt.Errorf("monitor: EVENTS batch of %d exceeds limit %d", count, maxBatch)
	}
	if uint64(count)*eventRecMin > uint64(len(p)) {
		return events, fmt.Errorf("monitor: EVENTS count %d larger than payload", count)
	}
	events = slices.Grow(events, int(count))
	for i := uint32(0); i < count; i++ {
		if len(p) < eventRecMin {
			return events[:0], fmt.Errorf("monitor: EVENTS record %d truncated", i)
		}
		kind := model.Kind(p[0])
		if kind > model.Sync {
			return events[:0], fmt.Errorf("monitor: EVENTS record %d: unknown kind %d", i, p[0])
		}
		e := model.Event{Kind: kind}
		e.ID.Process = model.ProcessID(binary.BigEndian.Uint32(p[1:]))
		e.ID.Index = model.EventIndex(binary.BigEndian.Uint32(p[5:]))
		p = p[eventRecMin:]
		if kind != model.Unary {
			if len(p) < 8 {
				return events[:0], fmt.Errorf("monitor: EVENTS record %d: partner truncated", i)
			}
			e.Partner.Process = model.ProcessID(binary.BigEndian.Uint32(p))
			e.Partner.Index = model.EventIndex(binary.BigEndian.Uint32(p[4:]))
			p = p[8:]
		}
		events = append(events, e)
	}
	if len(p) != 0 {
		return events[:0], fmt.Errorf("monitor: EVENTS payload has %d trailing bytes", len(p))
	}
	return events, nil
}

// encodeQueryPayload serializes a batch of precedence queries canonically.
func encodeQueryPayload(qs []Query) []byte {
	b := make([]byte, 0, 4+len(qs)*queryRec)
	b = appendU32(b, uint32(len(qs)))
	for _, q := range qs {
		b = append(b, byte(q.Op))
		b = appendU32(b, uint32(q.A.Process))
		b = appendU32(b, uint32(q.A.Index))
		b = appendU32(b, uint32(q.B.Process))
		b = appendU32(b, uint32(q.B.Index))
	}
	return b
}

// decodeQueryPayload parses a QUERY payload into dst's backing array, as
// decodeEventsPayload does an EVENTS payload. maxBatch <= 0 means unlimited.
func decodeQueryPayload(dst []Query, p []byte, maxBatch int) ([]Query, error) {
	qs := dst[:0]
	if len(p) < 4 {
		return qs, fmt.Errorf("monitor: QUERY payload truncated")
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if maxBatch > 0 && count > uint32(maxBatch) {
		return qs, fmt.Errorf("monitor: QUERY batch of %d exceeds limit %d", count, maxBatch)
	}
	if uint64(count)*queryRec != uint64(len(p)) {
		return qs, fmt.Errorf("monitor: QUERY count %d does not match payload size %d", count, len(p))
	}
	qs = slices.Grow(qs, int(count))
	for i := uint32(0); i < count; i++ {
		op := QueryOp(p[0])
		if op > OpConcurrent {
			return qs[:0], fmt.Errorf("monitor: QUERY record %d: unknown op %d", i, p[0])
		}
		q := Query{Op: op}
		q.A.Process = model.ProcessID(binary.BigEndian.Uint32(p[1:]))
		q.A.Index = model.EventIndex(binary.BigEndian.Uint32(p[5:]))
		q.B.Process = model.ProcessID(binary.BigEndian.Uint32(p[9:]))
		q.B.Index = model.EventIndex(binary.BigEndian.Uint32(p[13:]))
		p = p[queryRec:]
		qs = append(qs, q)
	}
	return qs, nil
}

// encodeQueryAtPayload serializes a QUERY@ batch: the cutoff followed by the
// canonical QUERY encoding.
func encodeQueryAtPayload(cutoff uint64, qs []Query) []byte {
	b := make([]byte, 0, 8+4+len(qs)*queryRec)
	b = binary.BigEndian.AppendUint64(b, cutoff)
	return append(b, encodeQueryPayload(qs)...)
}

// decodeQueryAtPayload parses a QUERY@ payload, its batch into dst's backing
// array.
func decodeQueryAtPayload(dst []Query, p []byte, maxBatch int) (cutoff uint64, qs []Query, err error) {
	if len(p) < 8 {
		return 0, dst[:0], fmt.Errorf("monitor: QUERY@ payload truncated")
	}
	cutoff = binary.BigEndian.Uint64(p)
	qs, err = decodeQueryPayload(dst, p[8:], maxBatch)
	return cutoff, qs, err
}

// encodeResultsPayload appends query answers to b, one code byte each.
func encodeResultsPayload(b []byte, res []QueryResult) []byte {
	b = slices.Grow(b, 4+len(res))
	b = appendU32(b, uint32(len(res)))
	for _, r := range res {
		switch {
		case r.Err != nil:
			b = append(b, resultErr)
		case r.True:
			b = append(b, resultTrue)
		default:
			b = append(b, resultFalse)
		}
	}
	return b
}

// decodeResultsPayload parses a RESULTS payload into raw result codes.
func decodeResultsPayload(p []byte) ([]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("monitor: RESULTS payload truncated")
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint64(count) != uint64(len(p)) {
		return nil, fmt.Errorf("monitor: RESULTS count %d does not match payload size %d", count, len(p))
	}
	for i, code := range p {
		if code > resultErr {
			return nil, fmt.Errorf("monitor: RESULTS record %d: unknown code %d", i, code)
		}
	}
	return p, nil
}

// encodeHelloPayload appends the server's HELLO announcement to b.
func encodeHelloPayload(b []byte, version byte, numProcs, maxBatch int) []byte {
	b = append(b, version)
	b = appendU32(b, uint32(numProcs))
	b = appendU32(b, uint32(maxBatch))
	return b
}

// decodeHelloPayload parses a HELLO payload.
func decodeHelloPayload(p []byte) (version byte, numProcs, maxBatch int, err error) {
	if len(p) != 9 {
		return 0, 0, 0, fmt.Errorf("monitor: HELLO payload size %d, want 9", len(p))
	}
	return p[0], int(binary.BigEndian.Uint32(p[1:])), int(binary.BigEndian.Uint32(p[5:])), nil
}

// encodeAckPayload appends an EVENTS acknowledgement to b.
func encodeAckPayload(b []byte, accepted int) []byte {
	return appendU32(b, uint32(accepted))
}

// decodeAckPayload parses an ACK payload.
func decodeAckPayload(p []byte) (accepted int, err error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("monitor: ACK payload size %d, want 4", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}
