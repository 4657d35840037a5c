package hct

// This file is admission: the delivery contract Fig. 3 presumes of its input
// — a linear extension with every send before its receive and the halves of a
// synchronous pair together — enforced once per pipeline, on the dispatching
// goroutine, before anything is journaled or planned. Every dispatch entry
// point admits through the pipeline's one Admission, and the collector
// (internal/monitor) assembles its runs against the same state instead of a
// copy of it, so what crosses the plan queue, and what reaches the write-ahead
// log, is a stream the planner cannot refuse.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/model"
)

// Admission is a pipeline's delivery-contract state: the per-process
// frontier, the in-flight sends with the receive each targets, and the held
// first half of a synchronous pair. It exists once per Pipeline
// (Pipeline.Admission) and nothing else in the engine keeps any of the three.
//
// Its lock is the outermost of the pipeline's (pipeline.go's file comment has
// the order): a dispatcher holds it from the first event it admits until the
// plan stage has taken the result, so admission order is plan order, and a
// collector holds it across admit → journal → enqueue, so it is journal order
// too. Next, SendTarget and Admit are for such a caller and require the lock.
type Admission struct {
	mu       sync.Mutex
	next     []model.EventIndex              // per process, next expected index
	pendSend map[model.EventID]model.EventID // in-flight send -> the receive it targets
	syncHold model.Event                     // first half of the in-flight sync pair, when holding
	holding  bool
	closed   bool // the pipeline was closed: nothing more is admitted

	// room is how many more events may be admitted before the store has to
	// be asked again how far it is from its limits; storeRoom asks it
	// (Pipeline.storeRoom).
	room      int64
	storeRoom func() int64
}

// ErrStoreFull marks a refusal by the store's own limits: a lane's arena is
// addressed by the 29-bit element offsets of a cell and the epoch table holds
// at most 2³⁰ entries (store.go), and the gate refuses what could carry either past its width
// while everything already admitted can still be stamped. Nothing of a
// refused batch is applied.
var ErrStoreFull = errors.New("hct: store full")

func (a *Admission) init(numProcs int, storeRoom func() int64) {
	a.next = make([]model.EventIndex, numProcs)
	for i := range a.next {
		a.next[i] = 1
	}
	a.pendSend = make(map[model.EventID]model.EventID, numProcs)
	a.storeRoom = storeRoom
}

// reserve claims store room for n more events, or refuses all n. Room claimed
// for an event the contract then rejects is not given back; the next reading
// of storeRoom finds it again.
func (a *Admission) reserve(n int) error {
	if int64(n) > a.room {
		if a.room = a.storeRoom(); int64(n) > a.room {
			return fmt.Errorf("hct: no room for %d more events: a lane's arena holds at most %d elements (%d MiB of vectors) and the epoch table %d entries; more lanes spread the processes' vectors over more arenas: %w",
				n, arenaLimit, arenaLimit*4>>20, epochLimit, ErrStoreFull)
		}
	}
	a.room -= int64(n)
	return nil
}

// Lock takes the admission lock; see the type comment for what it orders.
func (a *Admission) Lock() { a.mu.Lock() }

// Unlock releases the admission lock.
func (a *Admission) Unlock() { a.mu.Unlock() }

// Next returns the index of process p's next undelivered event.
func (a *Admission) Next(p int) model.EventIndex { return a.next[p] }

// SendTarget returns the receive an in-flight send targets; ok is false when
// the send was never admitted or its receive already was.
func (a *Admission) SendTarget(send model.EventID) (target model.EventID, ok bool) {
	target, ok = a.pendSend[send]
	return target, ok
}

// CheckRecord is the stateless half of the contract, what one record must
// satisfy whatever the stream holds: process and kind in range, and for a
// communication event a partner that is present, in range, in another process
// and not the event itself. It reads nothing that changes, so it needs no
// lock.
func (a *Admission) CheckRecord(e model.Event) error {
	n := len(a.next)
	if pr := int(e.ID.Process); pr < 0 || pr >= n {
		return fmt.Errorf("%w: %v", model.ErrDeliverProcOutOfRange, e.ID)
	}
	switch e.Kind {
	case model.Unary:
		// A partner on a unary event is ignored downstream; tolerated.
		return nil
	case model.Send, model.Receive, model.Sync:
	default:
		return fmt.Errorf("fm: unknown event kind %v for %v", e.Kind, e.ID)
	}
	if q := int(e.Partner.Process); e.Partner.IsZero() || q < 0 || q >= n {
		return fmt.Errorf("monitor: event %v partner %v: %w", e.ID, e.Partner, model.ErrDeliverBadPartner)
	}
	if e.Partner == e.ID && e.Kind == model.Sync {
		return fmt.Errorf("monitor: event %v: %w", e.ID, model.ErrDeliverSelfSync)
	}
	if e.Partner.Process == e.ID.Process {
		return fmt.Errorf("monitor: event %v partner %v: %w", e.ID, e.Partner, model.ErrDeliverBadPartner)
	}
	return nil
}

// checkStream is the stateful half, for a record that passed CheckRecord: the
// delivery contract's checks (duplicate, index gap, unknown send), that the
// send's stored target is this receive, and then the Fidge/Mattern layer's
// (sync interleaving, sync partner), sentinel for sentinel and in that order.
// It mutates nothing, so a rejected event leaves the state exactly as it
// found it.
func (a *Admission) checkStream(e model.Event) error {
	if want := a.next[e.ID.Process]; e.ID.Index < want {
		return fmt.Errorf("%w: %v", model.ErrDeliverDuplicate, e.ID)
	} else if e.ID.Index != want {
		return fmt.Errorf("%w: %v, want index %d", model.ErrDeliverBadIndex, e.ID, want)
	}
	if e.Kind == model.Receive {
		target, ok := a.pendSend[e.Partner]
		if !ok {
			return fmt.Errorf("%w: %v <- %v", model.ErrDeliverUnknownSend, e.ID, e.Partner)
		}
		if target != e.ID {
			return fmt.Errorf("%w: %v <- %v, which targets %v", model.ErrDeliverReceiveMismatch, e.ID, e.Partner, target)
		}
	}
	if a.holding {
		first := a.syncHold
		if e.Kind != model.Sync {
			return fmt.Errorf("%w: %v arrived while sync %v pending", model.ErrDeliverSyncInterleaved, e.ID, first.ID)
		}
		if first.Partner != e.ID || e.Partner != first.ID {
			return fmt.Errorf("%w: %v after %v", model.ErrDeliverSyncPartner, e.ID, first.ID)
		}
	}
	return nil
}

// advance records an event that passed both checks and reports what it
// finalizes for the plan stage, as a count: 1 for the event itself, 0 for the
// first half of a synchronous pair (held until its partner arrives), 2 for
// the second half — first, the held half, and then the event.
func (a *Admission) advance(e model.Event) (first model.Event, n int) {
	a.next[e.ID.Process]++
	switch e.Kind {
	case model.Send:
		a.pendSend[e.ID] = e.Partner
	case model.Receive:
		delete(a.pendSend, e.Partner)
	case model.Sync:
		if !a.holding {
			a.syncHold, a.holding = e, true
			return first, 0
		}
		a.holding = false
		return a.syncHold, 2
	}
	return first, 1
}

// Admit is the gate for a caller that held the record to CheckRecord when it
// arrived and assembles a run event by event — the collector: the stream
// check, then advance. (DispatchAsync and DispatchOne run all three
// steps themselves, in dispatchLocked.) The caller holds the lock from its first
// Admit until Pipeline.DispatchAdmitted has taken the run, and must admit the
// halves of a synchronous pair back to back, so that the run is its own
// finalized form. On error no state changes.
func (a *Admission) Admit(e model.Event) error {
	if a.closed {
		return ErrPipelineClosed
	}
	if err := a.checkStream(e); err != nil {
		return err
	}
	if err := a.reserve(1); err != nil {
		return err
	}
	a.advance(e)
	return nil
}
