package replay

import (
	"repro/internal/hct"
	"repro/internal/model"
)

// Tally is the offline store's tally, for tests that drive it directly.
type Tally struct{ t tally }

// NewTally returns a tally at the start of the log that keeps the accounting.
func NewTally(numProcs int, newConfig func() hct.Config) (*Tally, error) {
	t := &Tally{tally{n: make(hct.Watermark, numProcs), newConfig: newConfig}}
	return t, t.t.reset(nil)
}

// Count tallies one recorded run.
func (t *Tally) Count(run []model.Event) error { return t.t.count(run) }

// Stats returns the accounting of the counted prefix: the clusterer's Result
// and the pending-send count.
func (t *Tally) Stats() (hct.Result, int) { return t.t.acct.Result(), t.t.pending }

// SetMaxCachedViews sets the size of s's view cache, maxCachedViews until
// then; call it before the first ViewAt.
func (s *Store) SetMaxCachedViews(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxViews = n
}
