// Package replay is the time-travel query plane: it materializes the
// monitor's columnar timestamp store as of any point in recorded history and
// serves the full precedence-query surface against that point, without
// touching (or needing) the live ingest path.
//
// The input is a write-ahead log chain — the newest sealed snapshot plus the
// segments after it — opened read-only via wal.OpenChain. The log is the
// delivery order, and a store stamped in that order answers for any prefix
// of it as it did when the prefix was all it held [cut-by-count]. So a view
// at cutoff c is a store clamped at the watermark a count of the first c
// recorded events gives, and it is exact: every Precedes/Concurrent answer,
// every timestamp, every causal cut is what the live monitor would have
// answered at that moment.
//
// There is one way to build a view, the count walk (Store.countLocked); the
// constructors differ only in the store it clamps. OpenLive clamps the store
// of the daemon that writes the log (live.go). Open stamps the log into a
// one-lane engine of its own, which it only ever extends, up to the largest
// cutoff asked for so far; published cells never move or change
// [pages-never-move], so an extension never disturbs an earlier view's reads.
package replay

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/wal"
)

// CutoffLatest selects the newest recorded event count. ViewAt refreshes the
// chain first, so on a live WAL directory this tracks the daemon's sealed
// history.
const CutoffLatest = ^uint64(0)

// Options configures a replay store.
type Options struct {
	// NumProcs is the expected process count; 0 adopts it from the chain
	// headers. OpenLive takes the live store's.
	NumProcs int

	// NewConfig builds the cluster-timestamp configuration Open stamps and
	// accounts the log with, fresh for the engine and for each count from
	// the start of the log (deciders are stateful). Supply the daemon's
	// factory to reproduce its timestamps exactly; nil means singleton
	// clusters with MaxClusterSize 1, which answers every precedence query
	// correctly (the strategy affects timestamp size, never the order it
	// encodes). OpenLive ignores it: it stamps nothing.
	NewConfig func() hct.Config

	// Obs, when non-nil, records replay latencies (chain open, view
	// materialization) and the history counters, the bytes read from the log
	// among them, into the daemon's instrument set.
	Obs *obs.Telemetry
}

// maxCachedViews bounds a store's view cache (FIFO); evicted views stay
// valid, they just rematerialize on re-access.
const maxCachedViews = 8

// View is the store as of one cutoff: the live monitor's query surface —
// Precedes, Concurrent, Timestamp, Lookup, QueryBatch, GreatestPredecessors,
// GreatestConcurrent, Watermark — promoted from a store view cut at the
// cutoff's watermark (shared, not to be modified), and, for a view of an
// Open store, the accounting the count walk kept [stats-by-count]. Safe for
// concurrent use alongside further ViewAt calls on the owning store.
type View struct {
	*monitor.Queries

	cutoff  uint64
	result  hct.Result // Open stores only; zero under OpenLive
	pending int        // admitted sends awaiting their receive, with result
	held    int32      // see tally.held
}

// Cutoff returns the event-count cutoff this view is frozen at.
func (v *View) Cutoff() uint64 { return v.cutoff }

// Stats reports what the live monitor's Stats would have been at the cutoff.
// A view of an OpenLive store reports zeros: its walk resumes from cached
// checkpoints, which carry no partition, so it keeps no accounting.
func (v *View) Stats(fixedVector int) monitor.Stats {
	return monitor.StatsOf(v.result, v.pending, fixedVector)
}

// Store materializes replay views over one WAL directory. All methods are
// safe for concurrent use; materialization is serialized internally while
// queries against existing views proceed lock-free.
//
// View lifecycle vs refresh and cache eviction — the audited invariants:
//
//   - A View never reads the chain after materialization. Its hct.View
//     holds only a heap-resident store and the watermark slice of the
//     cutoff, so a refresh swapping (and closing) the chain underneath —
//     including after a compaction deleted the very segments the view was
//     built from — cannot invalidate it.
//   - Views stay correct while their store grows concurrently — by later
//     materializations extending the store's own engine, or by the daemon's
//     lanes: cells are published above already-counted watermarks and never
//     change [pages-never-move].
//   - Eviction from the FIFO cache only drops the Store's reference; a
//     caller-pinned *View keeps its engine alive through ordinary GC
//     reachability and keeps answering at its frozen cutoff.
//   - All chain and cache mutation (refreshes, ViewAt bookkeeping) happens
//     under mu; the only cross-goroutine surface a View exposes is the
//     watermark-clamped read path above.
//
// TestReplayViewLifecycleRace exercises exactly this shape under -race:
// pinned views queried concurrently with a compacting writer, refreshes,
// and a single-slot cache forcing eviction on every materialization.
type Store struct {
	dir   string
	opts  Options
	store *hct.Pipeline    // what the views clamp: ts's, or the daemon's (OpenLive)
	ts    *hct.Timestamper // Open's engine, fed only by extendLocked; nil under OpenLive

	mu        sync.Mutex
	chain     *wal.Chain
	tally     tally   // the count walk's running state
	views     []*View // FIFO cache, newest last
	maxViews  int     // maxCachedViews; tests change it
	readBytes int64   // this store's share of poetd_history_read_bytes_total
}

// Open opens the WAL chain in dir for replay. The directory may belong to a
// running daemon: the chain reader only touches sealed history.
func Open(dir string, opts Options) (*Store, error) {
	if opts.NewConfig == nil {
		opts.NewConfig = func() hct.Config { return hct.Config{MaxClusterSize: 1} }
	}
	s, err := open(dir, opts)
	if err != nil {
		return nil, err
	}
	s.tally = tally{n: make(hct.Watermark, s.chain.NumProcs()), newConfig: opts.NewConfig}
	if s.ts, err = hct.NewTimestamper(s.chain.NumProcs(), opts.NewConfig()); err == nil {
		err = s.tally.reset(nil)
	}
	if err != nil {
		s.chain.Close()
		return nil, err
	}
	s.store = s.ts.Pipeline
	return s, nil
}

// open is the engine-independent part of Open and OpenLive.
func open(dir string, opts Options) (*Store, error) {
	if opts.Obs == nil {
		opts.Obs = &obs.Telemetry{} // every instrument nil, and nil-safe
	}
	start := time.Now()
	chain, err := wal.OpenChain(dir, wal.ChainOptions{NumProcs: opts.NumProcs})
	if err != nil {
		return nil, err
	}
	opts.Obs.ReplayOpen.Observe(time.Since(start))
	if chain.NumProcs() <= 0 {
		chain.Close()
		return nil, errors.New("replay: chain holds no events and no process count was configured")
	}
	s := &Store{dir: dir, opts: opts, chain: chain, maxViews: maxCachedViews}
	s.countRead(chain.BytesRead())
	return s, nil
}

// countRead adds n bytes read from the log to the store's tally and to the
// daemon-wide counter. Called with s.mu held, or before s is shared.
func (s *Store) countRead(n uint64) {
	s.readBytes += int64(n)
	s.opts.Obs.HistoryReadBytes.Add(int64(n))
}

// Events returns the number of events currently recorded by the chain (as of
// the last open or refresh).
func (s *Store) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.Events()
}

// RunBoundaries returns the ascending global event counts at which recorded
// runs ended — the natural cutoffs of the recorded computation.
func (s *Store) RunBoundaries() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.RunBoundaries()
}

// HistoryStatus reports the store's position for /statusz.
func (s *Store) HistoryStatus() monitor.HistoryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := monitor.HistoryStatus{EnginePosition: s.positionLocked(), CachedViews: len(s.views), ReadBytes: s.readBytes}
	if len(s.views) > 0 {
		st.LastCutoff = s.views[len(s.views)-1].cutoff
	}
	return st
}

// positionLocked is how far into the log the store has read: the tally's
// position over a daemon's store, else the events Open's engine admitted, a
// held sync half included; a refused event leaves its frontier untouched
// [check-before-mutate].
func (s *Store) positionLocked() (n uint64) {
	if s.ts == nil {
		return s.tally.pos
	}
	for _, next := range s.ts.FrontierNext() {
		n += uint64(next - 1)
	}
	return n
}

// extendLocked stamps into Open's engine, its only feed, the part of run (the
// walk's next run, at the tally's position) past the engine's extent *ext,
// and advances *ext. It runs before the run is counted, so the tally never
// passes the engine and a log the engine refuses fails with its typed error.
func (s *Store) extendLocked(run []model.Event, ext *uint64) error {
	end := s.tally.pos + uint64(len(run))
	if end <= *ext {
		return nil
	}
	if err := s.ts.DispatchAsync(run[*ext-s.tally.pos:], nil); err != nil {
		return err
	}
	*ext = end
	return nil
}

// refreshLocked re-opens the chain, picking up segments sealed (and
// compactions performed) since the last open. Existing views remain valid.
func (s *Store) refreshLocked() error {
	start := time.Now()
	chain, err := wal.OpenChain(s.dir, wal.ChainOptions{NumProcs: s.chain.NumProcs()})
	if err != nil {
		return err
	}
	s.opts.Obs.ReplayOpen.Observe(time.Since(start))
	s.countRead(chain.BytesRead())
	if at := s.positionLocked(); chain.Events() < at {
		// The directory shrank below what we already read — it is not the
		// same computation anymore (e.g. the daemon was restarted on a fresh
		// trace). Refuse rather than serve mixed history.
		chain.Close()
		return fmt.Errorf("replay: chain in %s rewound to %d events (already materialized %d)", s.dir, chain.Events(), at)
	}
	s.chain.Close()
	s.chain = chain
	return nil
}

// ViewAt materializes (or returns a cached) view of the store as of cutoff
// events. CutoffLatest selects — after refreshing the chain — everything
// recorded. A cutoff beyond the last refresh triggers one refresh before
// failing, so callers can follow a live daemon by cutoff alone.
func (s *Store) ViewAt(cutoff uint64) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cutoff == CutoffLatest {
		if err := s.refreshLocked(); err != nil {
			return nil, err
		}
		cutoff = s.chain.Events()
	} else if cutoff > s.chain.Events() {
		if err := s.refreshLocked(); err != nil {
			return nil, err
		}
		if cutoff > s.chain.Events() {
			return nil, fmt.Errorf("replay: cutoff %d beyond recorded history (%d events)", cutoff, s.chain.Events())
		}
	}
	for _, v := range s.views {
		if v.cutoff == cutoff {
			return v, nil
		}
	}
	start := time.Now()
	v, err := s.countLocked(cutoff)
	if err != nil {
		return nil, fmt.Errorf("replay: materialize cutoff %d: %w", cutoff, err)
	}
	s.opts.Obs.ReplayMaterialize.Observe(time.Since(start))
	s.opts.Obs.HistoryViews.Inc()
	s.views = append(s.views, v)
	if len(s.views) > s.maxViews {
		s.views = append(s.views[:0], s.views[1:]...)
		s.views = s.views[:s.maxViews]
	}
	return v, nil
}

// countLocked builds the view at cutoff by counting, resuming from the
// greatest checkpoint at or below it: the running tally when the cutoff is
// ahead of it, else, under OpenLive, a cached view, else the start of the log
// [stats-by-count]. Over an Open store each run is first stamped past the
// engine's extent. The view cuts the store at the counted watermark; a store
// only gains cells above published watermarks, so its reads are stable.
func (s *Store) countLocked(cutoff uint64) (*View, error) {
	var from *View
	for _, v := range s.views {
		if s.ts == nil && v.cutoff <= cutoff && (from == nil || v.cutoff > from.cutoff) {
			from = v
		}
	}
	if s.tally.pos > cutoff || (from != nil && from.cutoff > s.tally.pos) {
		if err := s.tally.reset(from); err != nil {
			return nil, err
		}
	}
	at, step := s.tally.pos, s.tally.count
	if s.ts != nil {
		ext := s.positionLocked()
		step = func(run []model.Event) error {
			if err := s.extendLocked(run, &ext); err != nil {
				return err
			}
			return s.tally.count(run)
		}
	}
	before := s.chain.BytesRead()
	err := s.chain.ReplayRange(at, cutoff, step)
	s.countRead(s.chain.BytesRead() - before)
	s.opts.Obs.HistoryCountedEvents.Add(int64(s.tally.pos - at))
	if err != nil {
		return nil, err
	}
	wm := s.tally.watermark()
	if err := s.coverLocked(wm); err != nil {
		return nil, err
	}
	v := &View{Queries: monitor.NewQueries(s.store.At(wm)), cutoff: cutoff, held: s.tally.held}
	if s.tally.acct != nil {
		v.result, v.pending = s.tally.acct.Result(), s.tally.pending
	}
	return v, nil
}

// tally is the count walk's running state over a prefix of the log.
type tally struct {
	pos  uint64        // events counted: the prefix length
	n    hct.Watermark // of them, per process
	held int32         // process whose last counted event is a first sync half (its partner is event pos), or -1

	live hct.Watermark // the store's published counts as coverLocked last captured them

	// With newConfig (Open), the accounting of the counted prefix
	// [stats-by-count]; acct is nil under OpenLive, and count skips it.
	newConfig func() hct.Config
	acct      *hct.Accountant
	first     model.Event // the held first sync half, observed with its partner
	pending   int         // sends counted minus receives counted
}

// reset rewinds the tally to the cutoff of v, or to the start of the log when
// v is nil: a view's (cutoff, watermark, held) is a checkpoint of the walk. It
// carries no partition, so only a tally that keeps no accounting resumes from
// one [stats-by-count].
func (t *tally) reset(v *View) (err error) {
	if v == nil {
		clear(t.n)
		t.pos, t.held, t.pending = 0, -1, 0
		if t.newConfig != nil {
			t.acct, err = hct.NewAccountant(len(t.n), t.newConfig())
		}
		return err
	}
	copy(t.n, v.Watermark())
	t.pos, t.held = v.cutoff, v.held
	if t.held >= 0 {
		t.n[t.held]++
	}
	return nil
}

// count tallies one recorded run. It holds the run to what makes a tally a
// watermark — per-process indexes dense in log order, sync halves adjacent
// [sync-half-rule] — and stops, positioned at the offending event, when the
// log is not one the planner would have delivered.
func (t *tally) count(run []model.Event) error {
	for i := range run {
		e := &run[i]
		p := int(e.ID.Process)
		if p < 0 || p >= len(t.n) || int32(e.ID.Index) != t.n[p]+1 || (t.held >= 0 && e.Kind != model.Sync) {
			return fmt.Errorf("recorded event %d (%v) is out of delivery order", t.pos, e.ID)
		}
		t.n[p]++
		if t.acct != nil {
			t.account(e)
		}
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

// account observes e, the next counted event, as the plan stage would: a
// first sync half only together with its partner [stats-by-count].
func (t *tally) account(e *model.Event) {
	switch {
	case e.Kind == model.Sync && t.held < 0:
		t.first = *e
		return
	case e.Kind == model.Sync:
		t.acct.Observe(t.first)
	case e.Kind == model.Send:
		t.pending++
	case e.Kind == model.Receive:
		t.pending--
	}
	t.acct.Observe(*e)
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

// HistoryAt implements the daemon's history hook (monitor.HistoryProvider):
// it returns the query surface frozen at cutoff.
func (s *Store) HistoryAt(cutoff uint64) (*monitor.Queries, error) {
	v, err := s.ViewAt(cutoff)
	if err != nil {
		return nil, err
	}
	return v.Queries, nil
}

// Close closes the chain's files. Existing views keep answering — their
// timestamps live in a heap-resident store, not in the log —
// but further ViewAt calls that need more history will fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.Close()
}
