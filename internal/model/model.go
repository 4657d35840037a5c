// Package model defines the parallel-computation event model of the paper:
// sequential processes whose events (send, receive, unary, synchronous) form
// a partial order under Lamport's "happened before" relation.
//
// A process is any sequential entity — a thread, an OS process, a semaphore,
// an EJB, a TCP stream. Events are totally ordered within a process and
// identified by a (process, index) pair with 1-based indices, matching the
// event numbering used by observation tools such as POET.
package model

import (
	"errors"
	"fmt"
)

// ProcessID identifies a sequential process. IDs are dense and 0-based.
type ProcessID int32

// EventIndex is the 1-based position of an event within its process.
type EventIndex int32

// EventID names one event in a computation.
type EventID struct {
	Process ProcessID
	Index   EventIndex
}

// NoEvent is the zero EventID used where no partner exists. Valid event
// indices start at 1, so the zero value is never a real event.
var NoEvent = EventID{}

// IsZero reports whether id is the sentinel "no event" value.
func (id EventID) IsZero() bool { return id == NoEvent }

// String renders the ID as "p3:17".
func (id EventID) String() string { return fmt.Sprintf("p%d:%d", id.Process, id.Index) }

// Kind classifies an event.
type Kind uint8

const (
	// Unary events have no communication partner.
	Unary Kind = iota
	// Send events transmit a message; Partner names the matching receive.
	Send
	// Receive events accept a message; Partner names the matching send.
	Receive
	// Sync events are synchronous communications: the event is
	// simultaneously a transmit and a receive. Partner names the peer sync
	// event in the other process. Both halves of a synchronous
	// communication have Kind Sync.
	Sync
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unary:
		return "unary"
	case Send:
		return "send"
	case Receive:
		return "receive"
	case Sync:
		return "sync"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsTransmit reports whether events of this kind act as message transmits.
func (k Kind) IsTransmit() bool { return k == Send || k == Sync }

// IsReceive reports whether events of this kind act as message receives.
// Receive and Sync events are the candidate cluster receives of the
// cluster-timestamp algorithm.
func (k Kind) IsReceive() bool { return k == Receive || k == Sync }

// Event is one monitored event record, as captured by the instrumentation
// code of Figure 1: process identifier, event number, type, and partner-event
// identification if any.
type Event struct {
	ID      EventID
	Kind    Kind
	Partner EventID // zero unless Kind is Send, Receive or Sync
}

// HasPartner reports whether the event carries partner identification.
func (e Event) HasPartner() bool { return !e.Partner.IsZero() }

// String renders the event compactly, e.g. "recv p2:5 <- p0:3".
func (e Event) String() string {
	switch e.Kind {
	case Send:
		return fmt.Sprintf("send %v -> %v", e.ID, e.Partner)
	case Receive:
		return fmt.Sprintf("recv %v <- %v", e.ID, e.Partner)
	case Sync:
		return fmt.Sprintf("sync %v <> %v", e.ID, e.Partner)
	default:
		return fmt.Sprintf("unary %v", e.ID)
	}
}

// Trace is a complete monitored computation: a fixed set of processes and the
// events delivered to the monitoring entity, in delivery order. Delivery
// order is required to be a linear extension of the happened-before partial
// order (receives after their sends); Validate checks this.
type Trace struct {
	// Name identifies the computation, e.g. "pvm/stencil2d-256".
	Name string
	// NumProcs is the number of processes. Process IDs are 0..NumProcs-1.
	NumProcs int
	// Events holds the events in delivery order.
	Events []Event
}

// NumEvents returns the total number of events in the trace.
func (t *Trace) NumEvents() int { return len(t.Events) }

// PerProcessCounts returns the number of events in each process.
func (t *Trace) PerProcessCounts() []int {
	counts := make([]int, t.NumProcs)
	for _, e := range t.Events {
		if int(e.ID.Process) >= 0 && int(e.ID.Process) < t.NumProcs {
			counts[e.ID.Process]++
		}
	}
	return counts
}

// EventMap builds an index from EventID to position in delivery order.
func (t *Trace) EventMap() map[EventID]int {
	m := make(map[EventID]int, len(t.Events))
	for i, e := range t.Events {
		m[e.ID] = i
	}
	return m
}

// Stats summarizes a trace's composition.
type Stats struct {
	NumProcs  int
	NumEvents int
	Unary     int
	Sends     int
	Receives  int
	Syncs     int // individual sync events (a sync pair contributes 2)
	Messages  int // asynchronous messages (send/receive pairs)
	SyncPairs int
}

// Stats computes summary statistics for the trace.
func (t *Trace) Stats() Stats {
	s := Stats{NumProcs: t.NumProcs, NumEvents: len(t.Events)}
	for _, e := range t.Events {
		switch e.Kind {
		case Unary:
			s.Unary++
		case Send:
			s.Sends++
		case Receive:
			s.Receives++
		case Sync:
			s.Syncs++
		}
	}
	s.Messages = s.Sends
	s.SyncPairs = s.Syncs / 2
	return s
}

// Validation errors returned by Trace.Validate. Errors are wrapped with
// positional detail; use errors.Is to classify.
var (
	ErrProcOutOfRange   = errors.New("model: process id out of range")
	ErrBadIndex         = errors.New("model: event index not contiguous from 1")
	ErrDuplicateEvent   = errors.New("model: duplicate event id")
	ErrMissingPartner   = errors.New("model: communication event without partner")
	ErrUnexpectedOrder  = errors.New("model: receive delivered before matching send")
	ErrPartnerMismatch  = errors.New("model: partner events do not reference each other")
	ErrPartnerKind      = errors.New("model: partner event has incompatible kind")
	ErrSelfPartner      = errors.New("model: event partnered with its own process")
	ErrUnaryWithPartner = errors.New("model: unary event carries a partner")
	ErrDanglingPartner  = errors.New("model: partner event does not exist")
)

// Delivery errors: the one table of sentinels for the delivery contract, the
// precondition of every online consumer of an event stream (the
// Fidge/Mattern timestamper, the pipeline's admission gate, the collector in
// front of it). Unlike Validate they judge one event against the stream so
// far. Each text keeps the prefix of the package that first defined it
// ("poset:", "fm:", "monitor:"), even where that package no longer exists,
// because clients match on the texts over the wire; fm and monitor re-export
// the same values.
var (
	ErrDeliverProcOutOfRange = errors.New("poset: process id out of range")
	ErrDeliverBadIndex       = errors.New("poset: event index does not extend process history")
	ErrDeliverUnknownSend    = errors.New("poset: receive refers to unknown send")
	ErrDeliverDuplicate      = errors.New("poset: duplicate event")

	// A non-sync event arrived between the halves of a synchronous pair, or
	// the second half is not the one the first names.
	ErrDeliverSyncInterleaved = errors.New("fm: event interleaved inside a synchronous pair")
	ErrDeliverSyncPartner     = errors.New("fm: sync event does not match pending sync partner")

	// ErrDeliverBadPartner marks a communication event whose partner
	// reference is structurally impossible: missing, out of range, or within
	// the event's own process. ErrDeliverSelfSync is the synchronous event
	// partnered with itself (once delivered twice, as itself and as its own
	// partner half).
	ErrDeliverBadPartner = errors.New("monitor: bad partner reference")
	ErrDeliverSelfSync   = errors.New("monitor: sync event partnered with itself")
	// ErrDeliverSyncMismatch marks two front events that claim to be sync
	// partners but do not reference each other (or are not both syncs);
	// ErrDeliverReceiveMismatch a receive whose named send was delivered but
	// targets a different event (or was already claimed by another receive).
	ErrDeliverSyncMismatch    = errors.New("monitor: sync halves do not reference each other")
	ErrDeliverReceiveMismatch = errors.New("monitor: receive does not match its send's target")
)

// Validate checks structural well-formedness of the trace:
//
//   - every process ID lies in [0, NumProcs);
//   - per-process event indices are exactly 1..k in delivery order;
//   - unary events carry no partner, communication events carry one;
//   - partners reference each other with compatible kinds
//     (send<->receive, sync<->sync) and live in distinct processes;
//   - delivery order is a linear extension: a receive appears after its
//     matching send (sync pairs may appear in either order).
func (t *Trace) Validate() error {
	next := make([]EventIndex, t.NumProcs)
	pos := make(map[EventID]int, len(t.Events))
	for i, e := range t.Events {
		p := int(e.ID.Process)
		if p < 0 || p >= t.NumProcs {
			return fmt.Errorf("event %d (%v): %w", i, e.ID, ErrProcOutOfRange)
		}
		if _, dup := pos[e.ID]; dup {
			return fmt.Errorf("event %d (%v): %w", i, e.ID, ErrDuplicateEvent)
		}
		if e.ID.Index != next[p]+1 {
			return fmt.Errorf("event %d (%v): %w: got %d want %d", i, e.ID, ErrBadIndex, e.ID.Index, next[p]+1)
		}
		next[p]++
		pos[e.ID] = i

		switch e.Kind {
		case Unary:
			if e.HasPartner() {
				return fmt.Errorf("event %d (%v): %w", i, e.ID, ErrUnaryWithPartner)
			}
		case Send, Receive, Sync:
			if !e.HasPartner() {
				return fmt.Errorf("event %d (%v): %w", i, e.ID, ErrMissingPartner)
			}
			if e.Partner.Process == e.ID.Process {
				return fmt.Errorf("event %d (%v): %w", i, e.ID, ErrSelfPartner)
			}
		default:
			return fmt.Errorf("event %d (%v): unknown kind %d", i, e.ID, e.Kind)
		}

		// Receives must follow their send in delivery order.
		if e.Kind == Receive {
			if _, ok := pos[e.Partner]; !ok {
				return fmt.Errorf("event %d (%v): %w: send %v not yet delivered", i, e.ID, ErrUnexpectedOrder, e.Partner)
			}
		}
	}

	// Cross-check partner symmetry now that all events are indexed.
	for i, e := range t.Events {
		if !e.HasPartner() {
			continue
		}
		j, ok := pos[e.Partner]
		if !ok {
			return fmt.Errorf("event %d (%v): %w: %v", i, e.ID, ErrDanglingPartner, e.Partner)
		}
		p := t.Events[j]
		if p.Partner != e.ID {
			return fmt.Errorf("event %d (%v): %w: partner %v references %v", i, e.ID, ErrPartnerMismatch, p.ID, p.Partner)
		}
		switch e.Kind {
		case Send:
			if p.Kind != Receive {
				return fmt.Errorf("event %d (%v): %w: send partnered with %v", i, e.ID, ErrPartnerKind, p.Kind)
			}
		case Receive:
			if p.Kind != Send {
				return fmt.Errorf("event %d (%v): %w: receive partnered with %v", i, e.ID, ErrPartnerKind, p.Kind)
			}
		case Sync:
			if p.Kind != Sync {
				return fmt.Errorf("event %d (%v): %w: sync partnered with %v", i, e.ID, ErrPartnerKind, p.Kind)
			}
		}
	}
	return nil
}
