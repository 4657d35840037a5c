package related

import (
	"fmt"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/vclock"
)

// CachedFM models the compute-on-demand scheme the paper attributes to
// POET and Object-Level Trace (Section 1.1): the tool stores *no* per-event
// vectors. Instead it checkpoints the central timestamper's state every
// checkpointEvery delivered events and recomputes a queried event's
// Fidge/Mattern vector by replaying forward from the nearest checkpoint.
//
// Storage is the checkpoints (a handful of N-int vectors each); the
// precedence-test cost is O(N) with "the size of the constant being a
// function of the caching approach and the size of the cache" — here,
// up to checkpointEvery replayed events per reconstruction. This is the
// baseline whose poor interactive latency motivates cluster timestamps.
type CachedFM struct {
	tr       *model.Trace
	every    int
	pos      map[model.EventID]int // delivery position of each finalized event
	snaps    []*fm.Snapshot        // snaps[i] taken before delivering event i*every
	snapAt   []int                 // actual delivery position of each snapshot
	replayed int                   // events replayed by the most recent query
}

// NewCachedFM builds the checkpoint index over the trace.
func NewCachedFM(tr *model.Trace, checkpointEvery int) (*CachedFM, error) {
	if checkpointEvery < 1 {
		return nil, fmt.Errorf("related: checkpointEvery=%d", checkpointEvery)
	}
	c := &CachedFM{
		tr:    tr,
		every: checkpointEvery,
		pos:   make(map[model.EventID]int, len(tr.Events)),
	}
	ts := fm.NewTimestamper(tr.NumProcs)
	// Snapshot of the empty state.
	c.snaps = append(c.snaps, ts.Snapshot())
	c.snapAt = append(c.snapAt, 0)
	for i, e := range tr.Events {
		if _, err := ts.Observe(e); err != nil {
			return nil, fmt.Errorf("related: cached FM build: %w", err)
		}
		c.pos[e.ID] = i
		// Checkpoint on schedule; a snapshot may be unavailable mid-sync,
		// in which case the next eligible position is used.
		if (i+1)%checkpointEvery == 0 {
			if s := ts.Snapshot(); s != nil {
				c.snaps = append(c.snaps, s)
				c.snapAt = append(c.snapAt, i+1)
			}
		}
	}
	if err := ts.Flush(); err != nil {
		return nil, err
	}
	return c, nil
}

// Events returns the number of indexed events.
func (c *CachedFM) Events() int { return len(c.pos) }

// StorageInts totals the checkpoint storage — the only vectors the scheme
// keeps.
func (c *CachedFM) StorageInts() int64 {
	var total int64
	for _, s := range c.snaps {
		total += s.StorageInts()
	}
	return total
}

// LastReplayed returns the number of events the most recent reconstruction
// replayed — the query cost.
func (c *CachedFM) LastReplayed() int { return c.replayed }

// reconstruct recomputes FM(e) by replaying from the nearest checkpoint at
// or before e's delivery position.
func (c *CachedFM) reconstruct(e model.EventID) (vclock.Clock, error) {
	pos, ok := c.pos[e]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownEvent, e)
	}
	// Latest snapshot with snapAt <= pos.
	si := 0
	for i := len(c.snapAt) - 1; i >= 0; i-- {
		if c.snapAt[i] <= pos {
			si = i
			break
		}
	}
	ts := fm.NewFromSnapshot(c.snaps[si])
	c.replayed = 0
	for i := c.snapAt[si]; i <= pos; i++ {
		stamped, err := ts.Observe(c.tr.Events[i])
		if err != nil {
			return nil, err
		}
		c.replayed++
		for _, st := range stamped {
			if st.Event.ID == e {
				return st.Clock, nil
			}
		}
	}
	// A sync event's clock may finalize only when its partner (delivered
	// later) arrives; keep replaying until it does.
	for i := pos + 1; i < len(c.tr.Events); i++ {
		stamped, err := ts.Observe(c.tr.Events[i])
		if err != nil {
			return nil, err
		}
		c.replayed++
		for _, st := range stamped {
			if st.Event.ID == e {
				return st.Clock, nil
			}
		}
	}
	return nil, fmt.Errorf("related: replay never finalized %v", e)
}

// Precedes answers happened-before by reconstructing both vectors — the
// O(N)-per-test regime of the pre-cluster-timestamp tools.
func (c *CachedFM) Precedes(e, f model.EventID) (bool, error) {
	ce, err := c.reconstruct(e)
	if err != nil {
		return false, err
	}
	replayed := c.replayed
	cf, err := c.reconstruct(f)
	if err != nil {
		return false, err
	}
	c.replayed += replayed
	return fm.Precedes(e, ce, f, cf), nil
}
