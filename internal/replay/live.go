package replay

import (
	"errors"
	"fmt"

	"repro/internal/hct"
	"repro/internal/model"
)

// This file is the counting engine: history served from the store of the
// daemon that wrote the log.
//
// Why the live store can answer for the past. A cell is written once and
// never moves (hct/store.go); an event is stamped against the cluster epoch
// the planner pinned at its delivery, whatever merges came later; and a
// precedence test about f reads f's cell and, on the routed path, only notes
// with index ≤ FM(f)[q] — causal predecessors of f, which any delivery order
// finalized before f. So for e and f both among the first c delivered events
// the live store's answer is the answer the daemon gave after delivering c
// events, and "as of c" needs only the per-process published counts at that
// moment: a watermark. The log is the delivery order, so that watermark is a
// tally of the first c recorded events per process, with one exception — the
// first half of a synchronous pair is published together with the second
// (the planner's syncHold), so a cutoff that falls between the halves leaves
// that process one short. Halves are adjacent in delivery order (the
// admission gate, hct/admit.go), so one field of state carries it.
//
// Coverage. The collector journals a run before dispatching it, so the log can
// name events the lanes have not published yet. A view is handed out only
// once the live published watermark covers the cutoff's; see coverLocked.

// ErrNotCovered is returned (wrapped) for a cutoff whose events are recorded
// but will never be in the live store. A run is admitted before it is
// journaled and enqueued under the same hold of the admission lock, so a
// healthy daemon's log names nothing its store will not publish, and
// coverLocked waits for it; what remains is a log ahead of a store that has
// stopped taking runs — a collector fail-stopped after a journal error, or a
// pipeline closed under it. Retrying does not help.
var ErrNotCovered = errors.New("replay: cutoff not covered by the live store")

// OpenLive opens the WAL chain in dir as the history plane of the daemon
// whose pipeline journals into it. Views clamp live's own columns to the
// watermark it held at the cutoff, found by counting the log, so the store
// holds no timestamps of its own; opts.NumProcs and opts.NewConfig are not
// consulted (the process count is live's). A view's Counts are zero.
func OpenLive(dir string, live *hct.Pipeline, opts Options) (*Store, error) {
	opts.NumProcs = live.NumProcs() // the chain holds every file header to it
	s, err := open(dir, opts)
	if err != nil {
		return nil, err
	}
	s.live = live
	s.tally = tally{n: make(hct.Watermark, live.NumProcs()), held: -1}
	return s, nil
}

// tally is the counting engine's running state over a prefix of the log.
type tally struct {
	pos  uint64        // events counted: the prefix length
	n    hct.Watermark // of them, per process
	held int32         // process whose last counted event is a first sync half (its partner is event pos), or -1
}

// reset rewinds the tally to the cutoff of v, or to the start of the log when
// v is nil: a view's (cutoff, watermark, held) is a checkpoint of the walk.
func (t *tally) reset(v *View) {
	if v == nil {
		clear(t.n)
		t.pos, t.held = 0, -1
		return
	}
	copy(t.n, v.Watermark())
	t.pos, t.held = v.cutoff, v.held
	if t.held >= 0 {
		t.n[t.held]++
	}
}

// count tallies one recorded run. It holds the run to what makes a tally a
// watermark — per-process indexes dense in log order, sync halves adjacent —
// and stops, positioned at the offending event, when the log is not one the
// planner would have delivered.
func (t *tally) count(run []model.Event) error {
	for i := range run {
		e := &run[i]
		p := int(e.ID.Process)
		if p < 0 || p >= len(t.n) || int32(e.ID.Index) != t.n[p]+1 || (t.held >= 0 && e.Kind != model.Sync) {
			return fmt.Errorf("recorded event %d (%v) is out of delivery order", t.pos, e.ID)
		}
		t.n[p]++
		if e.Kind == model.Sync {
			if t.held < 0 {
				t.held = int32(p)
			} else {
				t.held = -1
			}
		}
		t.pos++
	}
	return nil
}

// watermark returns the published counts a daemon held after delivering the
// tallied prefix.
func (t *tally) watermark() hct.Watermark {
	w := append(hct.Watermark(nil), t.n...)
	if t.held >= 0 {
		w[t.held]--
	}
	return w
}

// countLocked builds the view at cutoff by counting. The walk resumes from
// the greatest checkpoint at or below the cutoff — the running tally when the
// cutoff is ahead of it, else a cached view, else the start of the log.
func (s *Store) countLocked(cutoff uint64) (*View, error) {
	var from *View
	for _, v := range s.views {
		if v.cutoff <= cutoff && (from == nil || v.cutoff > from.cutoff) {
			from = v
		}
	}
	if s.tally.pos > cutoff || (from != nil && from.cutoff > s.tally.pos) {
		s.tally.reset(from)
	}
	at := s.tally.pos
	err := s.chain.ReplayRange(at, cutoff, s.tally.count)
	s.opts.Obs.HistoryCountedEvents.Add(int64(s.tally.pos - at))
	if err != nil {
		return nil, err
	}
	wm := s.tally.watermark()
	if err := s.coverLocked(wm); err != nil {
		return nil, err
	}
	v := newView(cutoff, s.live, wm)
	v.held = s.tally.held
	return v, nil
}

// coverLocked returns once the live store has published every cell below
// want. If it has not, the lanes are behind the journal. A journaled run is
// either already with the plan stage or in the hands of a SubmitBatch that
// still holds the admission lock (admit → journal → enqueue happen under it),
// so taking and releasing that lock waits out at most that one call, and one
// Barrier then waits for everything dispatched — never for new input, and
// ingest does not wait for it. What is still missing after that will never be
// dispatched.
func (s *Store) coverLocked(want hct.Watermark) error {
	var have hct.Watermark
	short := func() int {
		have = s.live.CaptureWatermark(have)
		for p := range want {
			if have[p] < want[p] {
				return p
			}
		}
		return -1
	}
	if short() < 0 {
		return nil
	}
	s.opts.Obs.HistoryCoverWaits.Inc()
	gate := s.live.Admission()
	gate.Lock()
	gate.Unlock() // the empty critical section is the fence
	s.live.Barrier()
	if p := short(); p >= 0 {
		return fmt.Errorf("%w: process %d has not published event %d", ErrNotCovered, p, want[p])
	}
	return nil
}
