package model

import "fmt"

// Reachability answers happened-before queries by graph search over a
// trace's events. It is the ground-truth precedence implementation the
// timestamp algorithms are tested against, and it makes no use of vector
// clocks: e happened before f exactly when a path of process-successor and
// send→receive edges leads from e to f.
//
// The two halves of a synchronous pair are contracted onto the
// earlier-delivered half, so they are mutually concurrent while everything
// ordered with respect to one half is identically ordered with respect to
// the other.
//
// Reachability is not safe for concurrent use: each query runs its search in
// shared scratch space.
type Reachability struct {
	pos  map[EventID]int // delivery position of each event
	rep  []int           // position → its contracted node (itself, or its earlier sync half)
	succ [][]int         // forward edges between contracted nodes
	// Search scratch: seen[n] == stamp marks a node reached by the current
	// search.
	seen  []int
	stamp int
	stack []int
}

// NewReachability validates t and builds its happened-before graph.
func NewReachability(t *Trace) (*Reachability, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("model: building reachability: %w", err)
	}
	n := len(t.Events)
	r := &Reachability{
		pos:  t.EventMap(),
		rep:  make([]int, n),
		succ: make([][]int, n),
		seen: make([]int, n),
	}
	for i, e := range t.Events {
		r.rep[i] = i
		if j := r.pos[e.Partner]; e.Kind == Sync && j < i {
			r.rep[i] = j
		}
	}
	edge := func(from, to int) {
		if f, g := r.rep[from], r.rep[to]; f != g {
			r.succ[f] = append(r.succ[f], g)
		}
	}
	last := make([]int, t.NumProcs) // 1 + the position of each process's latest event; 0: none yet
	for i, e := range t.Events {
		if prev := last[e.ID.Process]; prev > 0 {
			edge(prev-1, i)
		}
		last[e.ID.Process] = i + 1
		if e.Kind == Receive {
			edge(r.pos[e.Partner], i)
		}
	}
	return r, nil
}

// HappenedBefore reports whether e happened before f. It is false for
// identical events, for the two halves of a sync pair, and when either event
// is not in the trace.
func (r *Reachability) HappenedBefore(e, f EventID) bool {
	i, ok := r.pos[e]
	j, ok2 := r.pos[f]
	if !ok || !ok2 {
		return false
	}
	src, dst := r.rep[i], r.rep[j]
	if src == dst {
		return false
	}
	r.stamp++
	r.seen[src] = r.stamp
	r.stack = append(r.stack[:0], src)
	for len(r.stack) > 0 {
		cur := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, next := range r.succ[cur] {
			if next == dst {
				return true
			}
			if r.seen[next] != r.stamp {
				r.seen[next] = r.stamp
				r.stack = append(r.stack, next)
			}
		}
	}
	return false
}

// Concurrent reports whether e and f are distinct and neither happened
// before the other.
func (r *Reachability) Concurrent(e, f EventID) bool {
	return e != f && !r.HappenedBefore(e, f) && !r.HappenedBefore(f, e)
}
