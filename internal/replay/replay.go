// Package replay is the time-travel query plane: it materializes the
// monitor's columnar timestamp store as of any point in recorded history and
// serves the full precedence-query surface against that point, without
// touching (or needing) the live ingest path.
//
// The input is a write-ahead log chain — the newest sealed snapshot plus the
// segments after it — opened read-only via wal.OpenChain. Because the
// monitor's stamping is deterministic in delivery order, re-ingesting the
// first c recorded events through a fresh timestamper reproduces, byte for
// byte, the store a live monitor held after delivering those same c events.
// A replay view is therefore exact: every Precedes/Concurrent answer, every
// timestamp, every causal cut is what the live monitor would have answered
// at that moment.
//
// Views share one progressively-extended timestamper: asking for cutoff c2
// after c1 ≤ c2 only replays the (c1, c2] delta, and each view freezes the
// store at its cutoff by capturing the per-process watermarks right after
// materialization. Published cells never move or change [pages-never-move],
// so later extensions never disturb an earlier view's reads. Rewinding below
// an already-materialized cutoff rebuilds from the start of the chain.
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

	// NewConfig builds the cluster-timestamp configuration used to restamp
	// history. Deciders are stateful, so a fresh Config is requested per
	// engine. To reproduce a live monitor's timestamps exactly, supply the
	// same factory the daemon used; nil defaults to singleton clusters with
	// MaxClusterSize 1, which answers every precedence query correctly (the
	// clustering strategy affects timestamp size, never the order it
	// encodes). OpenLive ignores it: nothing is restamped.
	NewConfig func() hct.Config

	// Obs, when non-nil, records replay latencies (chain open, view
	// materialization) and the history counters, the bytes read from the log
	// among them, into the daemon's instrument set.
	Obs *obs.Telemetry

	// MaxCachedViews bounds the view cache (FIFO). 0 selects the default
	// of 8; evicted views stay valid, they just rematerialize on re-access.
	MaxCachedViews int
}

const defaultMaxCachedViews = 8

// View is the store as of one cutoff: the live monitor's query surface —
// Precedes, Concurrent, Timestamp, Lookup, QueryBatch, GreatestPredecessors,
// GreatestConcurrent, Watermark — promoted from a store view cut at the
// cutoff's watermark (shared, not to be modified), and, for a restamped view,
// the accounting the restamping engine held there. Safe for concurrent use
// alongside further ViewAt calls on the owning store.
type View struct {
	*monitor.Queries

	cutoff  uint64
	result  hct.Result // restamped views only; zero under OpenLive
	pending int        // admitted sends awaiting their receive, with result
	held    int32      // OpenLive only: see tally.held
}

// Cutoff returns the event-count cutoff this view is frozen at.
func (v *View) Cutoff() uint64 { return v.cutoff }

// Stats reports what the live monitor's Stats would have been at the cutoff.
// A view of an OpenLive store reports zeros: the clusterer's counters as of a
// cutoff are known only to an engine that restamped up to it.
func (v *View) Stats(fixedVector int) monitor.Stats {
	return monitor.StatsOf(v.result, v.pending, fixedVector)
}

// Store materializes replay views over one WAL directory. All methods are
// safe for concurrent use; materialization is serialized internally while
// queries against existing views proceed lock-free.
//
// A store has one of two engines, fixed at construction. Open restamps: the
// recorded events are fed through a timestamper of the store's own, which
// also yields the accounting (View.Stats) at the cutoff. OpenLive counts:
// the views clamp the store of the daemon that wrote the log (live.go).
//
// View lifecycle vs refresh and cache eviction — the audited invariants:
//
//   - A View never reads the chain after materialization. Its hct.View
//     holds only a heap-resident store and the watermark slice of the
//     cutoff, so a refresh swapping (and closing) the chain underneath —
//     including after a compaction deleted the very segments the view was
//     built from — cannot invalidate it.
//   - Views stay correct while their store grows concurrently — by later
//     materializations extending the shared restamping engine, or by the
//     daemon's lanes: cells are published above already-captured
//     watermarks and never change [pages-never-move]. Rewind views of the
//     restamping engine get a throwaway engine nobody extends.
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
	dir  string
	opts Options
	live *hct.Pipeline // OpenLive: the store the views clamp; nil = restamp

	mu        sync.Mutex
	chain     *wal.Chain
	ts        *hct.Timestamper // restamping engine, extended forward in cutoff order
	delivered uint64           // events fed into ts so far
	tally     tally            // counting engine (live.go)
	views     []*View          // FIFO cache, newest last
	readBytes int64            // this store's share of poetd_history_read_bytes_total
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
	if s.ts, err = hct.NewTimestamper(s.chain.NumProcs(), opts.NewConfig()); err != nil {
		s.chain.Close()
		return nil, err
	}
	return s, nil
}

// open is the engine-independent part of Open and OpenLive.
func open(dir string, opts Options) (*Store, error) {
	if opts.MaxCachedViews <= 0 {
		opts.MaxCachedViews = defaultMaxCachedViews
	}
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
	s := &Store{dir: dir, opts: opts, chain: chain}
	s.countRead(chain.BytesRead())
	return s, nil
}

// countRead adds n bytes read from the log to the store's tally and to the
// daemon-wide counter. Called with s.mu held, or before s is shared.
func (s *Store) countRead(n uint64) {
	s.readBytes += int64(n)
	s.opts.Obs.HistoryReadBytes.Add(int64(n))
}

// NumProcs returns the process count of the recorded computation.
func (s *Store) NumProcs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.NumProcs()
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

// positionLocked is how far into the log the store's engine has read.
func (s *Store) positionLocked() uint64 {
	if s.live != nil {
		return s.tally.pos
	}
	return s.delivered
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
	materialize := s.restampLocked
	if s.live != nil {
		materialize = s.countLocked
	}
	v, err := materialize(cutoff)
	if err != nil {
		return nil, fmt.Errorf("replay: materialize cutoff %d: %w", cutoff, err)
	}
	s.opts.Obs.ReplayMaterialize.Observe(time.Since(start))
	s.opts.Obs.HistoryViews.Inc()
	s.views = append(s.views, v)
	if len(s.views) > s.opts.MaxCachedViews {
		s.views = append(s.views[:0], s.views[1:]...)
		s.views = s.views[:s.opts.MaxCachedViews]
	}
	return v, nil
}

// newView freezes store at wm as the view of cutoff. A store only ever gains
// cells above published watermarks, so reads cut at wm are stable forever.
func newView(cutoff uint64, store *hct.Pipeline, wm hct.Watermark) *View {
	return &View{
		Queries: monitor.NewQueries(store.At(wm)),
		cutoff:  cutoff,
		held:    -1,
	}
}

// restampLocked builds the view at cutoff by restamping. Ascending cutoffs
// extend the shared engine by the delta; a rewind below the shared engine's
// position restamps from the start of the chain into a throwaway engine.
func (s *Store) restampLocked(cutoff uint64) (*View, error) {
	ts := s.ts
	from := s.delivered
	shared := cutoff >= s.delivered
	if !shared {
		fresh, err := hct.NewTimestamper(s.chain.NumProcs(), s.opts.NewConfig())
		if err != nil {
			return nil, err
		}
		ts, from = fresh, 0
	}
	err := s.walkLocked(from, cutoff, func(run []model.Event) error {
		return ts.DispatchAsync(run, nil)
	})
	if shared {
		// Even on error the successfully-ingested prefix is valid history;
		// keep the shared engine consistent with what it absorbed. A
		// rejected event leaves the frontier untouched, so the frontier
		// counts exactly the accepted events (a held sync half included).
		s.delivered = 0
		for _, next := range ts.FrontierNext() {
			s.delivered += uint64(next - 1)
		}
	}
	if err != nil {
		return nil, err
	}
	v := newView(cutoff, ts.Pipeline, ts.CaptureWatermark(nil))
	v.result, v.pending = ts.Result(), ts.PendingSends()
	return v, nil
}

// walkLocked streams the recorded events [from, to) to fn and counts the
// bytes it read from the log.
func (s *Store) walkLocked(from, to uint64, fn func([]model.Event) error) error {
	before := s.chain.BytesRead()
	err := s.chain.ReplayRange(from, to, fn)
	s.countRead(s.chain.BytesRead() - before)
	return err
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
