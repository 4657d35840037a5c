// Package fm implements the Fidge/Mattern vector timestamp, computed
// centrally in the monitoring entity as described in Section 2.2 of the
// paper.
//
// The timestamper consumes events in delivery order (a linear extension of
// the computation's partial order) and assigns each event e a vector FM(e)
// of size N (the number of processes) such that
//
//	e -> f  <=>  FM(e)[pe] <= FM(f)[pe]  (e != f, e not f's sync partner)
//
// where pe is the process of e. The assignment follows the worked example of
// Figure 2: an event's clock is the element-wise maximum of its in-process
// predecessor's clock with the event's own component incremented, and — for
// receives — the matching send's (final) clock. Synchronous events are
// treated as a joint event: both halves receive the identical element-wise
// maximum of the two sides, and the halves are mutually concurrent.
package fm

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/vclock"
)

// Stamped pairs an event with its finalized Fidge/Mattern timestamp.
type Stamped struct {
	Event model.Event
	Clock vclock.Clock
}

// Errors returned by Timestamper.Observe. The two sync sentinels are the
// delivery-contract values of package model, re-exported (the same values, so
// errors.Is matches across packages).
var (
	ErrUnknownSend     = errors.New("fm: receive for unknown or already-consumed send")
	ErrSyncInterleaved = model.ErrDeliverSyncInterleaved
	ErrSyncPartner     = model.ErrDeliverSyncPartner
	ErrProcOutOfRange  = errors.New("fm: process id out of range")
	ErrBadIndex        = errors.New("fm: event index does not extend its process history")
)

// Timestamper incrementally computes Fidge/Mattern timestamps for an event
// stream. It retains only the per-process frontier clocks plus the clocks of
// sends whose receives have not yet been delivered, mirroring the bounded
// state a production monitoring entity keeps.
//
// Timestamper is not safe for concurrent use.
type Timestamper struct {
	n        int
	frontier []vclock.Clock                 // last event's clock per process (nil until first event)
	pending  map[model.EventID]vclock.Clock // finalized send clocks awaiting their receive
	free     []vclock.Clock                 // retired pending-send clocks, reused for new sends
	syncHold *pendingSync                   // first half of an in-flight synchronous pair
	outBuf   [2]Borrowed                    // reused result slice backing for ObserveBorrowed
	observed int
}

type pendingSync struct {
	ev  model.Event
	clk vclock.Clock // frontier+increment for the first half, not yet maxed
}

// NewTimestamper returns a timestamper for a computation with n processes.
func NewTimestamper(n int) *Timestamper {
	if n <= 0 {
		panic(fmt.Sprintf("fm: NewTimestamper with n=%d", n))
	}
	return &Timestamper{
		n:        n,
		frontier: make([]vclock.Clock, n),
		pending:  make(map[model.EventID]vclock.Clock),
	}
}

// NumProcs returns the number of processes.
func (ts *Timestamper) NumProcs() int { return ts.n }

// PendingSends returns the number of send clocks held awaiting receives.
func (ts *Timestamper) PendingSends() int { return len(ts.pending) }

// Borrowed pairs an event with a finalized clock that remains owned by the
// timestamper: it is valid only until the next Observe/ObserveBorrowed call
// and must be cloned to be retained. This is the allocation-free fast path
// behind high-throughput ingestion — most consumers (the cluster-timestamp
// engine above all) project or discard the full vector immediately, so
// handing out the live frontier avoids two full-vector copies per event.
type Borrowed struct {
	Event model.Event
	Clock vclock.Clock
}

// ownClock computes the event's base clock into a freshly allocated vector:
// the in-process predecessor's clock with the own component incremented. It
// is used for the held half of a synchronous pair, whose clock must not
// alias the frontier until the pair completes.
func (ts *Timestamper) ownClock(e model.Event) (vclock.Clock, error) {
	if err := ts.validate(e); err != nil {
		return nil, err
	}
	p := int(e.ID.Process)
	var clk vclock.Clock
	if prev := ts.frontier[p]; prev != nil {
		clk = prev.Clone()
	} else {
		clk = vclock.New(ts.n)
	}
	clk[p]++
	return clk, nil
}

// validate checks that e extends its process history without mutating any
// state, so every error return leaves the timestamper untouched.
func (ts *Timestamper) validate(e model.Event) error {
	p := int(e.ID.Process)
	if p < 0 || p >= ts.n {
		return fmt.Errorf("%w: %v", ErrProcOutOfRange, e.ID)
	}
	var own int32
	if f := ts.frontier[p]; f != nil {
		own = f[p]
	}
	if own+1 != int32(e.ID.Index) {
		return fmt.Errorf("%w: %v has own component %d", ErrBadIndex, e.ID, own+1)
	}
	return nil
}

// bump advances the frontier of e's process in place and returns it. The
// caller must have validated e first.
func (ts *Timestamper) bump(e model.Event) vclock.Clock {
	p := int(e.ID.Process)
	clk := ts.frontier[p]
	if clk == nil {
		clk = vclock.New(ts.n)
		ts.frontier[p] = clk
	}
	clk[p]++
	return clk
}

// retain copies clk into a (possibly recycled) vector for the pending-send
// table.
func (ts *Timestamper) retain(clk vclock.Clock) vclock.Clock {
	if n := len(ts.free); n > 0 {
		cp := ts.free[n-1]
		ts.free = ts.free[:n-1]
		cp.CopyFrom(clk)
		return cp
	}
	return clk.Clone()
}

// Observe ingests the next event in delivery order and returns the events
// whose timestamps became final as a result. Unary, send and receive events
// finalize immediately (one result). The first half of a synchronous pair is
// held (zero results) until its partner arrives, whereupon both halves
// finalize with identical clocks (two results, in process order of arrival).
//
// Returned clocks are owned by the caller; the timestamper retains no
// aliases. ObserveBorrowed is the allocation-free variant.
func (ts *Timestamper) Observe(e model.Event) ([]Stamped, error) {
	bs, err := ts.ObserveBorrowed(e)
	if err != nil || len(bs) == 0 {
		return nil, err
	}
	out := make([]Stamped, len(bs))
	for i, b := range bs {
		out[i] = Stamped{Event: b.Event, Clock: b.Clock.Clone()}
	}
	return out, nil
}

// ObserveBorrowed is Observe without the defensive copies: the returned
// slice and its clocks are owned by the timestamper and valid only until
// the next call. On error no state changes.
func (ts *Timestamper) ObserveBorrowed(e model.Event) ([]Borrowed, error) {
	if ts.syncHold != nil && e.Kind != model.Sync {
		return nil, fmt.Errorf("%w: %v arrived while sync %v pending", ErrSyncInterleaved, e.ID, ts.syncHold.ev.ID)
	}
	switch e.Kind {
	case model.Unary, model.Send, model.Receive:
		if err := ts.validate(e); err != nil {
			return nil, err
		}
		var sclk vclock.Clock
		if e.Kind == model.Receive {
			var ok bool
			if sclk, ok = ts.pending[e.Partner]; !ok {
				return nil, fmt.Errorf("%w: %v <- %v", ErrUnknownSend, e.ID, e.Partner)
			}
			delete(ts.pending, e.Partner)
		}
		clk := ts.bump(e)
		if sclk != nil {
			clk.MaxInto(sclk)
			ts.free = append(ts.free, sclk)
		}
		if e.Kind == model.Send {
			ts.pending[e.ID] = ts.retain(clk)
		}
		ts.observed++
		ts.outBuf[0] = Borrowed{Event: e, Clock: clk}
		return ts.outBuf[:1], nil

	case model.Sync:
		if ts.syncHold == nil {
			clk, err := ts.ownClock(e)
			if err != nil {
				return nil, err
			}
			ts.syncHold = &pendingSync{ev: e, clk: clk}
			return nil, nil
		}
		first := ts.syncHold
		if first.ev.Partner != e.ID || e.Partner != first.ev.ID {
			return nil, fmt.Errorf("%w: %v after %v", ErrSyncPartner, e.ID, first.ev.ID)
		}
		if err := ts.validate(e); err != nil {
			return nil, err
		}
		ts.syncHold = nil
		clk := ts.bump(e)
		clk.MaxInto(first.clk)
		p1 := int(first.ev.ID.Process)
		f1 := ts.frontier[p1]
		if f1 == nil {
			f1 = vclock.New(ts.n)
			ts.frontier[p1] = f1
		}
		f1.CopyFrom(clk)
		ts.observed += 2
		ts.outBuf[0] = Borrowed{Event: first.ev, Clock: f1}
		ts.outBuf[1] = Borrowed{Event: e, Clock: clk}
		return ts.outBuf[:2], nil

	default:
		return nil, fmt.Errorf("fm: unknown event kind %v for %v", e.Kind, e.ID)
	}
}

// Flush reports an error if the stream ended in an inconsistent state:
// an unpaired synchronous event or sends that were never received.
func (ts *Timestamper) Flush() error {
	if ts.syncHold != nil {
		return fmt.Errorf("fm: stream ended with unpaired sync %v", ts.syncHold.ev.ID)
	}
	if len(ts.pending) > 0 {
		for id := range ts.pending {
			return fmt.Errorf("fm: stream ended with %d unreceived sends (e.g. %v)", len(ts.pending), id)
		}
	}
	return nil
}

// Snapshot captures the timestamper's replayable state: the per-process
// frontier clocks and the pending-send clocks. It returns nil when the
// stream is mid-way through a synchronous pair (snapshot there and the
// restore could not finalize the pair). Snapshots power compute-on-demand
// schemes that checkpoint the stream and replay forward.
type Snapshot struct {
	frontier []vclock.Clock
	pending  map[model.EventID]vclock.Clock
	observed int
}

// Snapshot returns a deep copy of the current state, or nil if a
// synchronous pair is in flight.
func (ts *Timestamper) Snapshot() *Snapshot {
	if ts.syncHold != nil {
		return nil
	}
	s := &Snapshot{
		frontier: make([]vclock.Clock, ts.n),
		pending:  make(map[model.EventID]vclock.Clock, len(ts.pending)),
		observed: ts.observed,
	}
	for i, c := range ts.frontier {
		if c != nil {
			s.frontier[i] = c.Clone()
		}
	}
	for id, c := range ts.pending {
		s.pending[id] = c.Clone()
	}
	return s
}

// Observed returns the number of events finalized when the snapshot was
// taken.
func (s *Snapshot) Observed() int { return s.observed }

// StorageInts returns the vector elements the snapshot retains.
func (s *Snapshot) StorageInts() int64 {
	var total int64
	for _, c := range s.frontier {
		total += int64(len(c))
	}
	for range s.pending {
		total += int64(len(s.frontier))
	}
	return total
}

// NewFromSnapshot returns a timestamper resuming from a snapshot. The
// snapshot is deep-copied; the original remains reusable.
func NewFromSnapshot(s *Snapshot) *Timestamper {
	ts := NewTimestamper(len(s.frontier))
	for i, c := range s.frontier {
		if c != nil {
			ts.frontier[i] = c.Clone()
		}
	}
	for id, c := range s.pending {
		ts.pending[id] = c.Clone()
	}
	ts.observed = s.observed
	return ts
}

// Precedes implements the Fidge/Mattern precedence test (Eq. 3, reconciled
// against Figure 2): e happened before f iff the clocks differ and e's own
// component in FM(e) is <= the same component in FM(f). Sync partners carry
// identical clocks and are reported concurrent.
func Precedes(e model.EventID, ce vclock.Clock, f model.EventID, cf vclock.Clock) bool {
	if e == f {
		return false
	}
	if ce[e.Process] > cf[e.Process] {
		return false
	}
	// Identical clocks arise only for the two halves of a synchronous
	// pair, which are mutually concurrent.
	return !ce.Equal(cf)
}

// Concurrent reports whether e and f are concurrent (neither precedes).
func Concurrent(e model.EventID, ce vclock.Clock, f model.EventID, cf vclock.Clock) bool {
	return !Precedes(e, ce, f, cf) && !Precedes(f, cf, e, ce)
}

// StampAll runs a fresh timestamper over the whole trace and returns the
// finalized timestamps in delivery order. It is a convenience for tests,
// examples and the static (two-pass) clustering pipeline.
func StampAll(t *model.Trace) ([]Stamped, error) {
	ts := NewTimestamper(t.NumProcs)
	out := make([]Stamped, 0, len(t.Events))
	for _, e := range t.Events {
		st, err := ts.Observe(e)
		if err != nil {
			return nil, fmt.Errorf("fm: at event %v: %w", e.ID, err)
		}
		out = append(out, st...)
	}
	if err := ts.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}
