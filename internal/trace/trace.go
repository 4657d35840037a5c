// Package trace serializes computation traces. Two formats are provided:
//
//   - a compact binary format (magic "HCTR") with varint-encoded event
//     records, used by the command-line tools to store generated corpora;
//   - a line-oriented text format for human inspection and interchange,
//     mirroring the event records a monitoring entity receives (process,
//     event number, type, partner identification); DESIGN.md §7 has its
//     record grammar, shared with the monitoring server's text protocol.
//
// Both formats round-trip exactly and are validated on read.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Magic identifies the binary trace format.
const Magic = "HCTR"

// Version is the current binary format version.
const Version = 1

// Errors returned by the readers.
var (
	ErrBadMagic   = errors.New("trace: bad magic")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt input")
)

// maxProcs bounds the accepted process count: readers reject anything
// larger rather than attempting enormous allocations on corrupt input.
const maxProcs = 1 << 22

// WriteBinary writes the trace in binary format.
func WriteBinary(w io.Writer, t *model.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(Version); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.NumProcs)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := putUvarint(uint64(e.ID.Process)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.ID.Index)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if e.Kind != model.Unary {
			if err := putUvarint(uint64(e.Partner.Process)); err != nil {
				return err
			}
			if err := putUvarint(uint64(e.Partner.Index)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a binary-format trace and validates it.
func ReadBinary(r io.Reader) (*model.Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(magic) != Magic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<20 {
		return nil, fmt.Errorf("%w: name length", ErrCorrupt)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrCorrupt, err)
	}
	numProcs, err := binary.ReadUvarint(br)
	if err != nil || numProcs == 0 || numProcs > maxProcs {
		return nil, fmt.Errorf("%w: numProcs", ErrCorrupt)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil || count > 1<<32 {
		return nil, fmt.Errorf("%w: event count", ErrCorrupt)
	}
	// Cap the pre-allocation: a corrupt header must not trigger a huge
	// up-front allocation — truncated input fails while decoding events.
	capHint := count
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	t := &model.Trace{
		Name:     string(name),
		NumProcs: int(numProcs),
		Events:   make([]model.Event, 0, capHint),
	}
	for i := uint64(0); i < count; i++ {
		var e model.Event
		p, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d process: %v", ErrCorrupt, i, err)
		}
		idx, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d index: %v", ErrCorrupt, i, err)
		}
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: event %d kind: %v", ErrCorrupt, i, err)
		}
		e.ID = model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(idx)}
		e.Kind = model.Kind(kind)
		if e.Kind != model.Unary {
			pp, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d partner process: %v", ErrCorrupt, i, err)
			}
			pi, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d partner index: %v", ErrCorrupt, i, err)
			}
			e.Partner = model.EventID{Process: model.ProcessID(pp), Index: model.EventIndex(pi)}
		}
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid trace: %w", err)
	}
	return t, nil
}

// The text format's records — also the event portion of the monitoring
// server's v1 EVENT line — are parsed and rendered only by ParseEventID,
// ParseRecord and AppendRecord:
//
//	u <proc>:<idx>
//	s <proc>:<idx> -> <proc>:<idx>
//	r <proc>:<idx> <- <proc>:<idx>
//	y <proc>:<idx> <> <proc>:<idx>
//
// proc is 0..2147483647 and idx 1..2147483647, ASCII digits only: "+1:1" and
// "-0:1" are rejected, "01:1" is 1:1, and "4294967296:1" is refused, not
// wrapped to 0:1 (full grammar: DESIGN.md §7). A text trace wraps the records
// in "# trace <name>" and "procs <N>"; blank and other "#" lines are skipped.

// recordForms maps each event kind to its record letter and partner arrow.
var recordForms = [...]struct{ letter, arrow string }{
	model.Unary:   {"u", ""},
	model.Send:    {"s", "->"},
	model.Receive: {"r", "<-"},
	model.Sync:    {"y", "<>"},
}

// ParseEventID parses "<process>:<index>", range-checking both halves into
// the model's int32 fields.
func ParseEventID(s string) (model.EventID, error) {
	ps, is, _ := strings.Cut(s, ":") // no colon: is is empty and fails to parse
	p, err1 := strconv.ParseUint(ps, 10, 31)
	i, err2 := strconv.ParseUint(is, 10, 31)
	if err1 != nil || err2 != nil || i == 0 {
		return model.EventID{}, fmt.Errorf("bad event id %q", s)
	}
	return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, nil
}

// ParseRecord parses one event record from its blank-separated fields,
// checking kind, arity and arrow.
func ParseRecord(fields []string) (model.Event, error) {
	if len(fields) < 2 {
		return model.Event{}, errors.New("missing event id")
	}
	kind := model.Unary
	for kind <= model.Sync && recordForms[kind].letter != fields[0] {
		kind++
	}
	if kind > model.Sync {
		return model.Event{}, fmt.Errorf("unknown event kind %q", fields[0])
	}
	id, err := ParseEventID(fields[1])
	if err != nil {
		return model.Event{}, err
	}
	e, arrow := model.Event{ID: id, Kind: kind}, recordForms[kind].arrow
	switch {
	case kind == model.Unary && len(fields) > 2:
		return model.Event{}, errors.New("unary takes no partner")
	case kind == model.Unary:
		return e, nil
	case len(fields) < 4:
		return model.Event{}, errors.New("missing partner")
	case len(fields) > 4:
		return model.Event{}, fmt.Errorf("unexpected field %q after partner", fields[4])
	case fields[2] != arrow:
		return model.Event{}, fmt.Errorf("expected %q, not %q", arrow, fields[2])
	}
	if e.Partner, err = ParseEventID(fields[3]); err != nil {
		return model.Event{}, err
	}
	return e, nil
}

// AppendRecord appends e's record to buf.
func AppendRecord(buf []byte, e model.Event) ([]byte, error) {
	if e.Kind > model.Sync {
		return buf, fmt.Errorf("trace: unknown kind %v", e.Kind)
	}
	form := recordForms[e.Kind]
	buf = append(buf, form.letter...)
	buf = appendEventID(append(buf, ' '), e.ID)
	if e.Kind != model.Unary {
		buf = append(append(append(buf, ' '), form.arrow...), ' ')
		buf = appendEventID(buf, e.Partner)
	}
	return buf, nil
}

func appendEventID(buf []byte, id model.EventID) []byte {
	buf = strconv.AppendInt(buf, int64(id.Process), 10)
	return strconv.AppendInt(append(buf, ':'), int64(id.Index), 10)
}

// WriteText writes the trace in the line-oriented text format.
func WriteText(w io.Writer, t *model.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s\nprocs %d\n", t.Name, t.NumProcs); err != nil {
		return err
	}
	var line []byte
	for _, e := range t.Events {
		var err error
		if line, err = AppendRecord(line[:0], e); err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText reads a text-format trace and validates it.
func ReadText(r io.Reader) (*model.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	t := &model.Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# trace ") {
			t.Name = strings.TrimPrefix(line, "# trace ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "procs ") {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "procs ")), 10, 32)
			if err != nil || n <= 0 || n > maxProcs {
				return nil, fmt.Errorf("%w: line %d: bad procs", ErrCorrupt, lineNo)
			}
			t.NumProcs = int(n)
			continue
		}
		e, err := ParseRecord(strings.Fields(line))
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrCorrupt, lineNo, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.NumProcs == 0 {
		return nil, fmt.Errorf("%w: missing procs header", ErrCorrupt)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid trace: %w", err)
	}
	return t, nil
}
