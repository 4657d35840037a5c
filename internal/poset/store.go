// Package poset implements the central partial-order data structure of the
// monitoring entity (Figure 1 of the paper): an incrementally-built store of
// the transitive reduction of the "happened before" relation, indexed by a
// B-tree keyed on (process, event number), plus a reachability oracle used
// by tests as ground truth for precedence.
//
// Since the sharded-ingest rework the store is off the monitor's hot
// delivery path: the pipeline planner (internal/hct) performs the same
// frontier/duplicate/pending-send validation inline and reports it with the
// same sentinels (they live in internal/model; this package re-exports them)
// and messages — the contract tests in internal/hct/pipeline_test.go pin
// that. The store remains the reference implementation of that contract, the
// reachability oracle for differential tests, and the backing structure for
// offline analysis tools.
package poset

import (
	"fmt"

	"repro/internal/model"
)

// Node is one stored event together with its transitive-reduction edges.
// The transitive reduction of the computation's partial order contains, for
// each event, at most two incoming edges: the previous event in the same
// process and — for receive events — the matching send. Synchronous events
// additionally share an undirected pairing edge.
type Node struct {
	Event model.Event
	// PrevInProcess is the arena position of the event's in-process
	// predecessor, or -1 for the first event of a process.
	PrevInProcess int
	// PartnerPos is the arena position of the partner event, or -1. For a
	// receive this is the send (an incoming reduction edge); for a send,
	// the receive (outgoing); for a sync, the peer.
	PartnerPos int
	// NextInProcess is the arena position of the in-process successor, or
	// -1 while the event is the process frontier.
	NextInProcess int
}

// Store is the partial-order data structure. Events are appended in delivery
// order; the store wires the transitive-reduction edges incrementally and
// maintains the B-tree index.
//
// Store is not safe for concurrent use.
type Store struct {
	numProcs int
	arena    []Node
	index    *BTree
	frontier []int // arena position of each process's latest event, -1 if none
	// pendingSends maps a send's key to its arena position until the
	// matching receive is delivered, mirroring the monitoring entity's
	// in-flight message table.
	pendingSends map[Key]int
}

// Errors returned by Store.Append: the delivery-contract sentinels of package
// model, re-exported (the same values, so errors.Is matches across packages).
var (
	ErrProcOutOfRange = model.ErrDeliverProcOutOfRange
	ErrBadIndex       = model.ErrDeliverBadIndex
	ErrUnknownSend    = model.ErrDeliverUnknownSend
	ErrDuplicate      = model.ErrDeliverDuplicate
)

// NewStore returns an empty store for numProcs processes.
func NewStore(numProcs int) *Store {
	if numProcs <= 0 {
		panic(fmt.Sprintf("poset: NewStore with numProcs=%d", numProcs))
	}
	frontier := make([]int, numProcs)
	for i := range frontier {
		frontier[i] = -1
	}
	return &Store{
		numProcs:     numProcs,
		index:        NewBTree(),
		frontier:     frontier,
		pendingSends: make(map[Key]int),
	}
}

// NumProcs returns the number of processes.
func (s *Store) NumProcs() int { return s.numProcs }

// Len returns the number of stored events.
func (s *Store) Len() int { return len(s.arena) }

// Append ingests the next event in delivery order, wiring its
// transitive-reduction edges, and returns its arena position.
func (s *Store) Append(e model.Event) (int, error) {
	p := int(e.ID.Process)
	if p < 0 || p >= s.numProcs {
		return 0, fmt.Errorf("%w: %v", ErrProcOutOfRange, e.ID)
	}
	key := MakeKey(int32(e.ID.Process), int32(e.ID.Index))
	if _, exists := s.index.Get(key); exists {
		return 0, fmt.Errorf("%w: %v", ErrDuplicate, e.ID)
	}
	prev := s.frontier[p]
	wantIdx := int32(1)
	if prev >= 0 {
		wantIdx = int32(s.arena[prev].Event.ID.Index) + 1
	}
	if int32(e.ID.Index) != wantIdx {
		return 0, fmt.Errorf("%w: %v, want index %d", ErrBadIndex, e.ID, wantIdx)
	}

	pos := len(s.arena)
	n := Node{Event: e, PrevInProcess: prev, PartnerPos: -1, NextInProcess: -1}

	switch e.Kind {
	case model.Receive:
		skey := MakeKey(int32(e.Partner.Process), int32(e.Partner.Index))
		spos, ok := s.pendingSends[skey]
		if !ok {
			return 0, fmt.Errorf("%w: %v <- %v", ErrUnknownSend, e.ID, e.Partner)
		}
		delete(s.pendingSends, skey)
		n.PartnerPos = spos
		s.arena = append(s.arena, n)
		s.arena[spos].PartnerPos = pos
	case model.Send:
		s.arena = append(s.arena, n)
		s.pendingSends[key] = pos
	case model.Sync:
		// Wire the pairing lazily: the first half stores -1 until the
		// second half arrives and back-patches both.
		pkey := MakeKey(int32(e.Partner.Process), int32(e.Partner.Index))
		if ppos, ok := s.index.Get(pkey); ok {
			n.PartnerPos = ppos
			s.arena = append(s.arena, n)
			s.arena[ppos].PartnerPos = pos
		} else {
			s.arena = append(s.arena, n)
		}
	default:
		s.arena = append(s.arena, n)
	}

	if prev >= 0 {
		s.arena[prev].NextInProcess = pos
	}
	s.frontier[p] = pos
	s.index.Put(key, pos)
	return pos, nil
}

// AppendAll ingests every event of the trace.
func (s *Store) AppendAll(t *model.Trace) error {
	for _, e := range t.Events {
		if _, err := s.Append(e); err != nil {
			return err
		}
	}
	return nil
}

// At returns the node at an arena position.
func (s *Store) At(pos int) *Node { return &s.arena[pos] }

// Get looks up an event by ID via the B-tree index.
func (s *Store) Get(id model.EventID) (*Node, bool) {
	pos, ok := s.index.Get(MakeKey(int32(id.Process), int32(id.Index)))
	if !ok {
		return nil, false
	}
	return &s.arena[pos], true
}

// Pos returns the arena position of an event, or -1.
func (s *Store) Pos(id model.EventID) int {
	pos, ok := s.index.Get(MakeKey(int32(id.Process), int32(id.Index)))
	if !ok {
		return -1
	}
	return pos
}

// ProcessEvents calls fn for each event of process p in index order until fn
// returns false. It runs as a B-tree range scan.
func (s *Store) ProcessEvents(p model.ProcessID, fn func(*Node) bool) {
	lo := MakeKey(int32(p), 0)
	hi := MakeKey(int32(p)+1, 0)
	s.index.AscendRange(lo, hi, func(_ Key, pos int) bool {
		return fn(&s.arena[pos])
	})
}

// Frontier returns the latest event of process p, or nil if p has none.
func (s *Store) Frontier(p model.ProcessID) *Node {
	pos := s.frontier[p]
	if pos < 0 {
		return nil
	}
	return &s.arena[pos]
}

// PendingSends returns the number of sends awaiting their receive.
func (s *Store) PendingSends() int { return len(s.pendingSends) }

// EachPendingSend calls fn for every delivered send whose matching receive
// has not yet been delivered, in no particular order.
func (s *Store) EachPendingSend(fn func(model.Event)) {
	for _, pos := range s.pendingSends {
		fn(s.arena[pos].Event)
	}
}

// CheckIndex validates the B-tree invariants and the index↔arena agreement.
func (s *Store) CheckIndex() error {
	if err := s.index.checkInvariants(); err != nil {
		return err
	}
	if s.index.Len() != len(s.arena) {
		return fmt.Errorf("poset: index has %d keys for %d events", s.index.Len(), len(s.arena))
	}
	ok := true
	s.index.Ascend(func(k Key, pos int) bool {
		e := s.arena[pos].Event
		if int32(e.ID.Process) != k.Process() || int32(e.ID.Index) != k.Index() {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return fmt.Errorf("poset: index entry disagrees with arena")
	}
	return nil
}

// ImmediatePredecessors returns the arena positions of the event's immediate
// predecessors in the transitive reduction: the previous event in its
// process and, for receives, the matching send. Sync pairing edges are not
// included (the pair is a joint event, not an ordered edge).
func (s *Store) ImmediatePredecessors(pos int) []int {
	n := &s.arena[pos]
	out := make([]int, 0, 2)
	if n.PrevInProcess >= 0 {
		out = append(out, n.PrevInProcess)
	}
	if n.Event.Kind == model.Receive && n.PartnerPos >= 0 {
		out = append(out, n.PartnerPos)
	}
	return out
}
