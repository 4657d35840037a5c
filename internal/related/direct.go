// Package related implements the space-reduction alternatives Section 2.4
// of the paper compares against:
//
//   - Fowler/Zwaenepoel direct-dependency vectors: far smaller than
//     Fidge/Mattern timestamps, but precedence testing degenerates to a
//     search through the dependency graph — worst case linear in the number
//     of messages;
//   - a Singhal/Kshemkalyani-style differential encoding: each event stores
//     only the components of its Fidge/Mattern vector that changed since
//     its in-process predecessor; the paper reports evaluating such a
//     scheme and realizing no more than a factor of three in space.
//
// Both serve as baselines for the space/query-time trade-off the cluster
// timestamp navigates.
package related

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// ErrUnknownEvent is returned by queries naming an unstamped event.
var ErrUnknownEvent = errors.New("related: event has no timestamp")

// DirectDep is one event's direct-dependency record (Fowler/Zwaenepoel):
// only the immediate dependencies are stored, not their transitive closure.
type DirectDep struct {
	ID model.EventID
	// Deps holds the directly-depended-on events: the in-process
	// predecessor (if any) and, for receive-kind events, the partner
	// event. At most two entries.
	Deps []model.EventID
}

// sizeInts returns the storage charge in integer units: one (process,
// index) pair per dependency.
func (d *DirectDep) sizeInts() int { return 2 * len(d.Deps) }

// DirectDependency tracks direct-dependency vectors for a computation and
// answers precedence queries by backward search.
type DirectDependency struct {
	numProcs int
	deps     map[model.EventID]*DirectDep
	events   int
	// lastSearchVisited records the number of events visited by the most
	// recent Precedes call, exposing the query cost the paper criticizes.
	lastSearchVisited int
}

// NewDirectDependency returns an empty tracker for numProcs processes.
func NewDirectDependency(numProcs int) *DirectDependency {
	if numProcs <= 0 {
		panic(fmt.Sprintf("related: NewDirectDependency with numProcs=%d", numProcs))
	}
	return &DirectDependency{
		numProcs: numProcs,
		deps:     make(map[model.EventID]*DirectDep),
	}
}

// Observe records one event (delivery order required only so far as partner
// events must exist when referenced by queries; recording is order-
// insensitive otherwise).
func (dd *DirectDependency) Observe(e model.Event) {
	d := &DirectDep{ID: e.ID}
	if e.ID.Index > 1 {
		d.Deps = append(d.Deps, model.EventID{Process: e.ID.Process, Index: e.ID.Index - 1})
	}
	if e.Kind.IsReceive() && e.HasPartner() {
		d.Deps = append(d.Deps, e.Partner)
	}
	dd.deps[e.ID] = d
	dd.events++
}

// ObserveAll records a whole trace.
func (dd *DirectDependency) ObserveAll(tr *model.Trace) {
	for _, e := range tr.Events {
		dd.Observe(e)
	}
}

// Events returns the number of recorded events.
func (dd *DirectDependency) Events() int { return dd.events }

// StorageInts totals the storage of all direct-dependency records.
func (dd *DirectDependency) StorageInts() int64 {
	var total int64
	for _, d := range dd.deps {
		total += int64(d.sizeInts())
	}
	return total
}

// LastSearchVisited returns the number of events the most recent Precedes
// visited — the query cost that makes this encoding unsuitable for
// interactive observation tools.
func (dd *DirectDependency) LastSearchVisited() int { return dd.lastSearchVisited }

// Precedes reports whether e happened before f by backward search from f
// through the direct dependencies. Worst case it visits every event in f's
// causal history.
//
// Synchronous pairs are mutually concurrent; as in the rest of the
// repository, the two halves reference each other via their receive role,
// so the search treats a sync partner edge as crossing into the partner's
// *history* (its in-process predecessor and its own dependencies), never
// the partner itself.
func (dd *DirectDependency) Precedes(e, f model.EventID) (bool, error) {
	if _, ok := dd.deps[e]; !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, e)
	}
	if _, ok := dd.deps[f]; !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, f)
	}
	if e == f {
		return false, nil
	}
	visited := make(map[model.EventID]bool)
	stack := []model.EventID{f}
	visited[f] = true
	dd.lastSearchVisited = 0
	// isSyncPair tracks whether an edge we traverse is the direct sync
	// partner edge from the *query root* f: reaching e as f's own sync
	// partner does not constitute happened-before.
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dd.lastSearchVisited++
		d := dd.deps[cur]
		for _, dep := range d.Deps {
			if dep == e {
				// The sync partner of f itself is concurrent with f,
				// not before it; any deeper occurrence is genuine.
				if cur == f && dd.isSyncPartnerEdge(f, dep) {
					continue
				}
				return true, nil
			}
			if !visited[dep] {
				// Do not traverse through f's own sync partner as if it
				// preceded f; instead traverse the partner's history.
				if cur == f && dd.isSyncPartnerEdge(f, dep) {
					for _, dd2 := range dd.deps[dep].Deps {
						if dd2 == e {
							return true, nil
						}
						if !visited[dd2] {
							visited[dd2] = true
							stack = append(stack, dd2)
						}
					}
					visited[dep] = true
					continue
				}
				visited[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	return false, nil
}

// isSyncPartnerEdge reports whether dep is f's synchronous partner.
func (dd *DirectDependency) isSyncPartnerEdge(f, dep model.EventID) bool {
	df := dd.deps[f]
	ddep := dd.deps[dep]
	if df == nil || ddep == nil {
		return false
	}
	// A sync pair references each other: f lists dep and dep lists f.
	fHasDep, depHasF := false, false
	for _, x := range df.Deps {
		if x == dep {
			fHasDep = true
		}
	}
	for _, x := range ddep.Deps {
		if x == f {
			depHasF = true
		}
	}
	return fHasDep && depHasF
}
