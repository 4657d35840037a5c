package hct

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/strategy"
)

// Config parameterizes a cluster-timestamp run.
type Config struct {
	// MaxClusterSize bounds the size of any cluster (the paper's maxCS,
	// the single tunable parameter of every strategy under comparison).
	MaxClusterSize int
	// Partition is the initial clustering. Nil means one singleton
	// cluster per process (the dynamic strategies' starting point).
	// Static strategies pass a precomputed partition here.
	Partition *cluster.Partition
	// Decider directs merging on cluster receives. Nil means never merge
	// (static clusterings).
	Decider strategy.Decider
}

// Errors returned by the engine.
var (
	ErrUnknownEvent = errors.New("hct: event has no timestamp")
	ErrBadConfig    = errors.New("hct: invalid configuration")
)

// Timestamper computes hierarchical cluster timestamps for an event stream
// and answers precedence queries over the stamped events.
//
// It is a façade over the inline one-lane Pipeline — the admission gate holds
// each event to the delivery contract, the planner makes the cluster
// decision, the single lane turns the Fidge/Mattern clock into a published
// timestamp on the caller's goroutine — so replay, the CLIs and the examples drive exactly the core the daemon
// runs. Full Fidge/Mattern vectors are retained only for noted cluster
// receives — the algorithm "deletes Fidge/Mattern timestamps that are no
// longer needed". The embedded Pipeline supplies the accounting (Result, one
// snapshot; StorageInts derives from it) and the lock-free query surface.
//
// Concurrency: writers serialize on the admission lock and, with Result, on
// the planner mutex; Timestamp, Precedes and Concurrent — the live View's
// reads — and CaptureWatermark take no lock and read only the prefix
// of the store published by the per-process watermarks.
// Only Partition hands out unsynchronized state.
type Timestamper struct {
	*Pipeline
}

// plane is the lock-free read plane of the Pipeline (and so of the
// Timestamper façade): the per-process timestamp columns, the noted
// cluster-receive columns, and the query-path tallies. Writers (one per
// column) publish through the column watermarks; a View answers from it with
// no lock, reading only published prefixes (see store.go for the protocol).
type plane struct {
	numProcs int
	cols     []tsColumn // per process, cell of event Index in slot Index-1
	crs      []crColumn // per process, notes sorted by event index

	// epochs is the published epoch table projection keyframes name their
	// cluster epoch by index in; entry 0 is nil, no projection's. The planner appends
	// (Pipeline.stageItem); see store.go for the protocol. It sits with cols
	// and crs, which the lanes read per event; what follows only queries
	// touch, and the counters they write.
	epochs atomic.Pointer[[]*cluster.Info]

	arenas []*arena // per process, the owning lane's arena: what the process's offsets are offsets into

	// Query-path accounting. Precedence queries run concurrently with each
	// other and with ingest, so these are atomic: qDirect counts queries
	// answered from the target timestamp's own cluster epoch (the
	// greatest-cluster-first fast path), qRouted counts queries that had to
	// route through the noted cluster receives.
	qDirect atomic.Int64
	qRouted atomic.Int64
}

func newPlane(numProcs int) plane {
	return plane{
		numProcs: numProcs,
		cols:     make([]tsColumn, numProcs),
		crs:      make([]crColumn, numProcs),
		arenas:   make([]*arena, numProcs),
	}
}

// vectors returns the chunk list that resolves process p's offsets. Called
// after the watermark load (or capture) the offsets were found under.
func (ts *plane) vectors(p model.ProcessID) chunkDir { return *ts.arenas[p].dir.Load() }

// epoch returns cluster epoch i, read off the keyframe of a cell found under a
// loaded (or captured) watermark (chunkDir.epoch), or handed to a lane by the
// planner; i is not 0.
func (ts *plane) epoch(i uint32) *cluster.Info { return (*ts.epochs.Load())[i] }

// NewTimestamper returns a timestamper over numProcs processes.
func NewTimestamper(numProcs int, cfg Config) (*Timestamper, error) {
	p, err := NewPipeline(numProcs, cfg, PipelineOptions{Shards: 1})
	if err != nil {
		return nil, err
	}
	return &Timestamper{p}, nil
}

// Partition exposes the live partition (read-only use only, serialized
// against the writer by the caller).
func (ts *Timestamper) Partition() *cluster.Partition { return ts.core.part }

// NumProcs returns the number of processes.
func (ts *plane) NumProcs() int { return ts.numProcs }

// QueryPathCounts returns the precedence query-path tallies: direct is the
// number of Precedes evaluations answered from the target timestamp's own
// cluster epoch (or full vector), routed the number that consulted the
// noted cluster receives. Safe to call concurrently with queries.
func (ts *plane) QueryPathCounts() (direct, routed int64) {
	return ts.qDirect.Load(), ts.qRouted.Load()
}

// Ingest delivers the next event in delivery order. What it finalizes — the
// event itself, nothing for the first half of a synchronous pair, both halves
// for the second — is readable through Timestamp on return. On error no state
// changes.
func (ts *Timestamper) Ingest(e model.Event) error { return ts.dispatchOne(e) }

// ObserveAll stamps an entire trace and reports an error if the stream ended
// incomplete: an unpaired synchronous event or sends that were never
// received.
func (ts *Timestamper) ObserveAll(tr *model.Trace) error {
	if err := ts.DispatchAsync(tr.Events, nil); err != nil {
		return fmt.Errorf("hct: %w", err)
	}
	a := &ts.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.holding {
		return fmt.Errorf("hct: stream ended with unpaired sync %v", a.syncHold.ID)
	}
	for id := range a.pendSend {
		return fmt.Errorf("hct: stream ended with %d unreceived sends (e.g. %v)", len(a.pendSend), id)
	}
	return nil
}

// variant is what the research timestampers — batch.go, migrate.go, hier.go —
// are made of: the one-lane inline Pipeline in Timestamper shape, with a
// decide policy of their own installed on its plan stage. The engine sits in
// an unexported field so that only the methods below are promoted, not the
// pipeline's Precedes and Concurrent: the fast noted-cluster-receive test is
// proved for clusters that only ever grow (a process's epochs then form a
// chain, so a causal path into f's epoch crosses a noted receive). Migration
// and nested static domains break that, and for a full-vector prefix it is
// only argued (DESIGN.md §16), so all three answer with the epoch-agnostic
// recursive test over the same store instead.
type variant struct{ ts *Timestamper }

// init builds the engine and installs policy as its decision hook.
func (v *variant) init(numProcs int, cfg Config, policy func(model.Event) *cluster.Info) error {
	ts, err := NewTimestamper(numProcs, cfg)
	if err != nil {
		return err
	}
	ts.decide = policy
	v.ts = ts
	return nil
}

// Observe delivers the next event in delivery order. On error no state
// changes.
func (v *variant) Observe(e model.Event) error { return v.ts.Ingest(e) }

// ObserveAll stamps an entire trace and reports an error if the stream ended
// incomplete.
func (v *variant) ObserveAll(tr *model.Trace) error { return v.ts.ObserveAll(tr) }

// Timestamp returns the stored timestamp of an event.
func (v *variant) Timestamp(id model.EventID) (Timestamp, bool) { return v.ts.Timestamp(id) }

// Precedes answers a happened-before query with the recursive test, exact
// however the clustering evolved.
func (v *variant) Precedes(e, f model.EventID) (bool, error) {
	return recursivePrecedes(v.ts, e, f)
}

// View is the one reader of the store: Has, Timestamp, Precedes and
// Concurrent below are the only implementations of those reads, and cell is
// the only place a watermark bounds a lookup. It is a plane and a cut, held
// by value; it takes no lock and is safe to use concurrently with ingestion
// and with other views.
//
// What callers must know is the one difference the cut makes. A view at a cut
// (At, or Capture) bounds every lookup by that watermark, so all its answers
// describe one store state, however long ingestion keeps running: events
// published since are unknown to it. The live view (Live) has no cut: each
// lookup is bounded by its process's watermark as published at that moment,
// so each answer describes a store state at or after the one before it. A
// one-shot read wants the live view — two watermark loads, where a cut costs
// one per process (BenchmarkOneShotPrecedes); a batch that must be consistent
// captures once and asks the cut view.
//
// A view holds nothing else of the store. The page, chunk and epoch
// directories are loaded by the read that needs them, after the bound it found
// its cell under, which is the order the publication protocol asks for
// (store.go); captured early they would only be staler, never wrong.
type View struct {
	ts *plane
	w  Watermark // nil: no cut
}

// Live returns the view with no cut.
func (ts *plane) Live() View { return View{ts: ts} }

// At returns the view at cut w, one count per process; the view aliases w,
// which must not change under it.
func (ts *plane) At(w Watermark) View { return View{ts: ts, w: w} }

// Capture returns the view cut at the counts published now, written into buf
// (reallocated if too small). A view that already has a cut is that view:
// it is returned unchanged and buf is not written.
func (v View) Capture(buf Watermark) View {
	if v.w == nil {
		v.w = v.ts.CaptureWatermark(buf)
	}
	return v
}

// Watermark returns the view's cut, nil for the live view. The slice is
// shared and must not be modified.
func (v View) Watermark() Watermark { return v.w }

// NumProcs returns the number of processes.
func (v View) NumProcs() int { return v.ts.numProcs }

// cell resolves id against the published store: below the live watermark of
// its process, loaded here, when the view has no cut, below the cut otherwise.
func (v View) cell(id model.EventID) *cell {
	p := int(id.Process)
	if p < 0 || p >= v.ts.numProcs {
		return nil
	}
	if v.w == nil {
		return v.ts.cols[p].get(id.Index)
	}
	return v.ts.cols[p].getAt(id.Index, v.w[p])
}

// Timestamp returns the timestamp of an event: a view of its stored cell,
// built by value. Full of a cluster receive stored as a keyframe aliases the
// store; Proj, and Full of one stored as a delta frame, are decoded into a
// fresh slice, the read's one allocation. Either way the vectors are to be
// treated as immutable.
func (v View) Timestamp(id model.EventID) (Timestamp, bool) {
	c := v.cell(id)
	if c == nil {
		return Timestamp{}, false
	}
	ts := v.ts
	t := Timestamp{ID: id, Kind: c.kind()}
	vecs := ts.vectors(id.Process)
	if c.noted() {
		t.Full = vecs.full(ts.crs[id.Process].at(int32(c.vec())), ts.numProcs, nil)
	} else {
		p := vecs.proj(c.vec())
		t.Cluster = ts.epoch(p.ep)
		t.Proj = p.decode(len(t.Cluster.Members))
		own, _ := t.Cluster.PosOf(int32(id.Process))
		t.Proj[own] = int32(id.Index) // the frame may be a predecessor's, and holds no own component
	}
	return t, true
}

// Has reports whether id is stored below the view's bound, without building a
// timestamp.
func (v View) Has(id model.EventID) bool { return v.cell(id) != nil }

// Timestamp, Precedes and Concurrent on the plane are the live view's: the
// spelling the Timestamper façade, the variants and the examples use.
func (ts *plane) Timestamp(id model.EventID) (Timestamp, bool) { return ts.Live().Timestamp(id) }
func (ts *plane) Precedes(e, f model.EventID) (bool, error)    { return ts.Live().Precedes(e, f) }
func (ts *plane) Concurrent(e, f model.EventID) (bool, error)  { return ts.Live().Concurrent(e, f) }

// latestCRAtOrBelow returns the greatest published noted cluster receive of
// process p with event index <= bound, or nil.
func (ts *plane) latestCRAtOrBelow(p int32, bound int32) *crNote {
	col := &ts.crs[p]
	hi := col.wm.Load()
	if hi == 0 {
		return nil
	}
	pages := *col.dir.Load() // after wm: lists every page below it
	// Binary search for the first note with index > bound.
	lo := int32(0)
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if pages[mid>>pageShift][mid&pageMask].index <= bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	lo--
	return &pages[lo>>pageShift][lo&pageMask]
}

// Precedes reports whether event e happened before event f, using only
// cluster timestamps and the per-process cluster-receive notes. An event at or
// above the view's bound is unknown.
//
// The test needs just FM(e)[pe] — which is e's own event index — and
// FM(f)[pe]. If f holds a full vector, or pe lies inside f's cluster epoch,
// FM(f)[pe] is read directly. Otherwise any causal path from e into f's
// cluster must pass through a noted cluster receive on one of the cluster's
// processes, so the test consults, for each member process q, the greatest
// noted cluster receive g of q with g's index <= FM(f)[q]: e precedes f iff
// some such g knows at least e.Index events of pe.
//
// The two halves of a synchronous pair carry identical vectors but are
// mutually concurrent, and the store keeps no partner to tell them by. It
// needs none: a half is stamped in a cluster that holds its partner or keeps
// its full vector (sync-partners-direct, DESIGN.md §10), so partners meet on
// the direct path, each holding exactly the other's index. Only there, only
// when FM(f)[pe] is exactly e's index and both are synchronous, is FM(e)[pf]
// read too, directly: at least f's index, the two are partners. Two events
// that are not cannot each know the other without a causal cycle, so a
// component e does not hold directly says they are not.
func (v View) Precedes(e, f model.EventID) (bool, error) {
	if e == f {
		return false, nil
	}
	ce := v.cell(e)
	if ce == nil {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, e)
	}
	cf := v.cell(f)
	if cf == nil {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, f)
	}
	// Within a process the order is the index order: a clock's own component
	// is its event's index, which no frame stores.
	ts := v.ts
	if e.Process == f.Process {
		ts.qDirect.Add(1)
		return e.Index < f.Index, nil
	}
	eIdx := int32(e.Index)

	// Read the cells, frames and notes directly: no timestamp is built on this
	// path. cell bounded e.Process, which is all component asks. f's chunk
	// list is loaded once, after the bound its cell was found under.
	ar := ts.arenas[f.Process] // the arena vecs resolves: f's, until the routed loop moves on
	vecs := *ar.dir.Load()
	var (
		c  *cluster.Info
		vf projection // f's, resolved once for its epoch and its members
	)
	fe, direct := int32(0), cf.noted() // fe: FM(f)[pe], where f's stored form holds it
	if direct {
		fe = vecs.component(ts.crs[f.Process].at(int32(cf.vec())), e.Process, ts.numProcs)
	} else {
		vf = vecs.proj(cf.vec())
		c = ts.epoch(vf.ep)
		var pos int
		if pos, direct = c.PosOf(int32(e.Process)); direct {
			fe = vf.member(pos)
		}
	}
	if direct {
		ts.qDirect.Add(1)
		if fe != eIdx || ce.kind() != model.Sync || cf.kind() != model.Sync {
			return fe >= eIdx, nil
		}
		// Partners? FM(e)[pf], read off e's stored form as FM(f)[pe] was.
		var ef int32
		vecs = ts.vectors(e.Process)
		if ce.noted() {
			ef = vecs.component(ts.crs[e.Process].at(int32(ce.vec())), f.Process, ts.numProcs)
		} else {
			ve := vecs.proj(ce.vec())
			pos, ok := ts.epoch(ve.ep).PosOf(int32(f.Process))
			if !ok {
				return true, nil
			}
			ef = ve.member(pos)
		}
		return ef < int32(f.Index), nil
	}

	// pe outside f's cluster epoch: route through noted cluster receives.
	// Every note this can touch has index <= FM(f)[q] for a member q, and
	// is therefore published whenever f's cell is visible (see store.go), so
	// the view's bound does not bound this search — and for the same reason any
	// chunk list loaded after f's bound resolves them. f's frame is
	// resolved once, f's own list serves every member on f's lane, and since
	// the members of a cluster mostly share a lane another list is loaded
	// only where the arena changes.
	ts.qRouted.Add(1)
	for k, q := range c.Members {
		bound := vf.next(k)
		if q == int32(f.Process) {
			bound = int32(f.Index) // f's own component
		}
		g := ts.latestCRAtOrBelow(q, bound)
		if g == nil {
			continue
		}
		if qa := ts.arenas[q]; qa != ar {
			ar, vecs = qa, *qa.dir.Load() // vf keeps aliasing f's chunks
		}
		if vecs.component(g, e.Process, ts.numProcs) >= eIdx {
			return true, nil
		}
	}
	return false, nil
}

// Concurrent reports whether neither event precedes the other.
func (v View) Concurrent(e, f model.EventID) (bool, error) {
	if e == f {
		return false, nil
	}
	ef, err := v.Precedes(e, f)
	if err != nil {
		return false, err
	}
	if ef {
		return false, nil
	}
	fe, err := v.Precedes(f, e)
	if err != nil {
		return false, err
	}
	return !fe, nil
}
