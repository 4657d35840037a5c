package hct

import (
	"fmt"

	"repro/internal/model"
)

// stampSource abstracts access to stored timestamps for the precedence
// algorithms. Timestamps come back by value: the column store keeps cells,
// not Timestamps, and builds the view on request.
type stampSource interface {
	Timestamp(id model.EventID) (Timestamp, bool)
}

// recursivePrecedes answers e -> f using only stored cluster timestamps, by
// structural recursion over cluster epochs. Unlike the noted-cluster-receive
// test of Timestamper.Precedes, it assumes nothing about how the clustering
// evolved — in particular it stays exact when processes migrate between
// clusters or when an initial batch was stamped under a different scheme —
// at the cost of a potentially deeper search.
//
// The recursion: FM(e)[pe] = e.Index always, so e -> f iff f's causal
// history contains at least e.Index events of pe. If pe lies in f's
// timestamp domain the component is read directly. Otherwise every causal
// path from e to f passes through one of f's frontier events: the latest
// event of each process q in f's cluster epoch known to f (index
// Proj[q]), or f's own in-process predecessor. e precedes f iff e is, or
// precedes, one of those strictly-earlier events. Memoization on the
// frontier events visited keeps the search linear in the number of stored
// events.
func recursivePrecedes(src stampSource, e, f model.EventID) (bool, error) {
	if e == f {
		return false, nil
	}
	te, ok := src.Timestamp(e)
	if !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, e)
	}
	tf, ok := src.Timestamp(f)
	if !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, f)
	}
	before, err := searchBefore(src, e, f, make(map[model.EventID]bool))
	if !before || err != nil || te.Kind != model.Sync || tf.Kind != model.Sync || e.Process == f.Process {
		return before, err
	}
	// Sync partners carry identical vectors but are mutually concurrent, and
	// the store keeps no partner. Two synchronous events on different
	// processes that each know the other are partners — anything else is a
	// causal cycle — so the question is asked the other way round, by the same
	// search. Every policy stamps a half over a domain that holds its partner,
	// or with its full vector [sync-partners-direct], so that
	// search reads the partner's index off e's stamp directly.
	after, err := searchBefore(src, f, e, make(map[model.EventID]bool))
	return !after, err
}

// searchBefore reports whether e == g would have been counted; precisely it
// answers "e -> f", assuming e != f has been established for the top-level
// pair (descents compare against frontier events which may equal e).
func searchBefore(src stampSource, e, f model.EventID, visited map[model.EventID]bool) (bool, error) {
	if visited[f] {
		return false, nil
	}
	visited[f] = true

	tf, ok := src.Timestamp(f)
	if !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, f)
	}
	if v, ok := tf.component(e.Process); ok {
		return v >= int32(e.Index), nil
	}

	// Descend through f's frontier events.
	try := func(q model.ProcessID, idx int32) (bool, error) {
		if idx < 1 {
			return false, nil
		}
		g := model.EventID{Process: q, Index: model.EventIndex(idx)}
		if g == e {
			return true, nil
		}
		return searchBefore(src, e, g, visited)
	}

	if tf.Full != nil {
		// Shouldn't happen (component covers full vectors), but keep the
		// invariant explicit.
		return tf.Full[e.Process] >= int32(e.Index), nil
	}
	for k, q := range tf.Cluster.Members {
		idx := tf.Proj[k]
		if model.ProcessID(q) == f.Process {
			// f's own column counts f itself; route through the
			// in-process predecessor instead.
			idx = int32(f.Index) - 1
		}
		ok, err := try(model.ProcessID(q), idx)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
