package replay

import (
	"errors"
	"fmt"

	"repro/internal/hct"
)

// This file is history served from the store of the daemon that writes the
// log. For e and f both among the first c delivered events the live store's
// answer is the answer the daemon gave after delivering c events
// [cut-by-count], so the count walk's watermark is all a view needs.
//
// The collector journals a run before dispatching it, so the log can name
// events the lanes have not published yet. A view is handed out only once the
// store's published watermark covers the cutoff's [cover-wait-bounded];
// Open's engine publishes a run before its dispatch returns.

// ErrNotCovered is returned (wrapped) for a cutoff whose events are recorded
// but will never be in the live store: a log ahead of a store that has
// stopped taking runs, a collector fail-stopped after a journal error or a
// pipeline closed under it [cover-wait-bounded]. Retrying does not help.
var ErrNotCovered = errors.New("replay: cutoff not covered by the live store")

// OpenLive opens the WAL chain in dir as the history plane of the daemon
// whose pipeline journals into it. Views clamp live's own columns to the
// watermark it held at the cutoff, found by counting the log, so the store
// holds no timestamps of its own; opts.NumProcs and opts.NewConfig are not
// consulted (the process count is live's). A view's Stats are zero.
func OpenLive(dir string, live *hct.Pipeline, opts Options) (*Store, error) {
	opts.NumProcs = live.NumProcs() // the chain holds every file header to it
	s, err := open(dir, opts)
	if err != nil {
		return nil, err
	}
	s.store, s.tally = live, tally{n: make(hct.Watermark, live.NumProcs()), held: -1}
	return s, nil
}

// coverLocked returns once the store has published every cell below want.
// If it has not, the daemon's lanes are behind the journal: taking and releasing
// the admission lock waits out the one SubmitBatch that may hold a journaled
// run [admit-before-journal], and one Barrier then covers everything
// dispatched. What is still missing after that will never be dispatched
// [cover-wait-bounded].
func (s *Store) coverLocked(want hct.Watermark) error {
	short := func() int {
		s.tally.live = s.store.CaptureWatermark(s.tally.live)
		for p := range want {
			if s.tally.live[p] < want[p] {
				return p
			}
		}
		return -1
	}
	if short() < 0 {
		return nil
	}
	s.opts.Obs.HistoryCoverWaits.Inc()
	gate := s.store.Admission()
	gate.Lock()
	gate.Unlock() // the empty critical section is the fence
	s.store.Barrier()
	if p := short(); p >= 0 {
		return fmt.Errorf("%w: process %d has not published event %d", ErrNotCovered, p, want[p])
	}
	return nil
}
