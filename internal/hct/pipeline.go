package hct

// This file is the ingest pipeline, the package's one stamping engine: a
// sequential planner feeding N stamping lanes, producing bit-identical
// timestamps at every lane count over one lock-free read plane. With one lane
// it runs entirely on the caller's goroutine; that shape is the Timestamper
// façade of engine.go.
//
// # Why delivery can be sharded at all
//
// A Fidge/Mattern clock is a property of the partial order, not of the
// delivery order: FM(e) is the join of e's predecessors' clocks plus e's own
// increment, so any schedule that respects the happened-before edges
// computes the same vectors. The only delivery-order-dependent state in the
// engine is the cluster bookkeeping — which cluster an event is stamped
// against, and whether a cluster receive merges or is noted — because merge
// decisions consult the live partition. The pipeline therefore splits
// delivery into
//
//   - an admission gate (admit.go, under the admission lock) that holds each
//     event to the delivery contract on the dispatching goroutine, before
//     anything is journaled or planned;
//   - a sequential planner (plan stage, under planMu) that makes every
//     cluster decision in delivery order through the cluster-receive core
//     (core.go), pinning the immutable *cluster.Info epoch each event must be
//     stamped with — by its index in the epoch table the planner keeps and
//     publishes (stageItem; store.go has the protocol); and
//   - N parallel lanes (stamp stage), each owning a disjoint set of
//     processes (and so a disjoint set of columns), that compute the FM
//     vectors, project or retain them, and publish cells and cluster-receive
//     notes — contention-free except at cross-shard communication.
//
// The shard map follows the paper's clustering: when an initial partition is
// configured, whole clusters land on one shard (intra-cluster traffic, the
// common case by construction, never crosses lanes); otherwise processes are
// split into contiguous blocks.
//
// # One body, synchronous errors
//
// DispatchAsync and DispatchOne share one body (dispatchLocked): lock
// admission, admit the batch — stopping at the first rejection; the prefix
// stays admitted, the rejected event changes nothing — hand the finalized
// events to the plan stage, unlock, return the error. The error is returned by
// the call that submitted the offending event at every lane count, and
// planning itself cannot fail: what reaches the planner has been admitted.
// Merge decisions are inherently sequential — each one can repartition the
// processes the next consults — so there is one plan stage.
//
// # Two shapes, chosen by the lane count
//
// Where the plan stage runs is a function of the lane count, fixed in
// NewPipeline. With one lane everything happens on the dispatching goroutine:
// each event is decided, clock-stepped and published as it is admitted, with
// no buffer between, no goroutine started, and Barrier a no-op. With more than
// one lane a dispatch admits straight into a pooled buffer, puts it on a
// bounded plan queue and returns, and a dedicated planner goroutine
// (planner.go) makes the decisions and flushes to the lanes. The submitter —
// the server's decode/WAL path — never touches planMu there, so journaling
// batch N+1 overlaps planning batch N, which overlaps stamping batch N-1.
//
// # Lock order
//
// collector mu (internal/monitor) → admission → plan queue / planMu → doneMu
// → lane. A dispatcher holds the admission lock while it waits for room on
// the plan queue; the planner goroutine and the lanes never take it, so that
// wait always ends. planMu and the plan queue's lock are never held together.
//
// # Cross-shard rendezvous
//
// A receive needs the matching send's finalized clock. Same-lane sends park
// it in a lane-local map; cross-lane sends publish it to a striped
// rendezvous table keyed by send ID, where the receiver's lane blocks until
// it appears. Delivery order guarantees the send was dispatched before the
// receive, so the wait always terminates; and because a lane publishes an
// event's column cell and cluster-receive note BEFORE forwarding its clock
// (put-after-publish), a clock obtained from the rendezvous proves, by
// induction over lanes, that every event it counts has published cell and
// note — exactly the visibility invariant the routed precedence path needs
// (store.go).
//
// Rendezvous traffic is batched per chunk. Outbound: a lane buffers its
// cross-lane send clocks per stripe and flushes each stripe's batch under
// one lock acquisition (one wakeup) instead of one per event. Deferring a
// put is safe for visibility — the put-after-publish invariant only requires
// the cell and note to precede the put, and delaying the put preserves that
// — but it is only deadlock-free because a lane flushes its buffered puts
// before EVERY operation that can block (a rendezvous take, the sync
// exchange) and at the end of each chunk: a buffered put may be exactly the
// clock another lane is blocked on, so no lane may sleep holding one.
// Inbound: when a lane claims a chunk it prescans it and claims every
// already-published clock its cross-lane receives will need, grouped per
// stripe, under one lock acquisition each (prefetchTakes). Claiming early
// cannot starve anyone — each send has exactly one receive, and the shard
// map routes it to this lane — and misses simply fall back to the blocking
// take.
//
// Deadlock-freedom: suppose lane A blocks at item iA (receive of send S in
// lane B) and B blocks at iB (receive of send S' in A), with S queued after
// iB and S' after iA. Dispatch order gives S < iA and S' < iB (sends precede
// their receives), so S' < iB < S < iA < S' — a contradiction. Lanes process
// their queues in dispatch order, so the blocked-on send is always ahead of
// (or at) the other lane's cursor, never behind another blocked item.
//
// Lane queues are bounded (maxLaneBacklog, flushLocked): the planner holds a
// planned batch back until every lane it feeds has room, and then hands it
// over whole. The argument above only needs the blocked-on send to be in its
// lane's queue, and it is: a held-back batch contains nothing that an already
// flushed item waits for, because sends are dispatched before their receives
// and the halves of a synchronous pair are staged into the same batch.
//
// Synchronous pairs are a joint event: both halves carry the identical join
// of the two sides' base clocks. A same-lane pair completes locally (the
// planner dispatches both halves adjacently). A cross-lane pair runs a
// two-round exchange: (1) each side publishes its own base clock keyed by
// its own ID, then takes the partner's — both puts precede both takes, so
// the exchange cannot deadlock — and stamps its half with the join; (2) each
// side marks its half published and waits for the partner's mark before
// processing further items. Round 2 exists because the joint clock counts
// the PARTNER's own event: without it, a later event of this lane could
// forward a clock counting an event whose cell and note are not yet
// published, breaking the put-after-publish invariant.
//
// # Barrier
//
// Above one lane a dispatch is asynchronous; Barrier blocks until every item
// dispatched before the call has been stamped and published. The planner
// counts issued items per shard; lanes count completed items per drained
// chunk. A held first sync half is not "issued": the pair stays unstamped
// until the partner arrives.
//
// The issued counts lag the accepted batches, so Barrier must count planned
// items, not just issued ones: it pushes a marker through the plan queue (FIFO
// with the batches, exempt from the depth bound), the planner answers it with
// an issued-count snapshot taken after planning everything that preceded it,
// and Barrier then waits for the lanes to cover that snapshot. When the queue
// is empty and the planner idle, Barrier skips the round-trip and snapshots
// directly — the common case on query paths, which barrier per query frame.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/vclock"
)

// ErrPipelineClosed is returned by every dispatch after Close.
var ErrPipelineClosed = errors.New("hct: pipeline closed")

// WaitObserver receives the duration of each blocking cross-shard
// rendezvous wait. The telemetry plane installs a latency histogram here.
type WaitObserver interface {
	Observe(d time.Duration)
}

// BatchTracer receives stage spans for one traced run: the planner records
// plan-mutex wait and planning time, lanes record their stamping intervals
// with cross-shard rendezvous waits as child spans. The interface decouples
// the pipeline from the telemetry package; *obs.Trace implements it. A nil
// BatchTracer (the common case — only sampled batches carry one) disables
// all span work at the cost of one pointer comparison per stage.
//
// Begin opens a span (lane -1 = not lane-bound, parent -1 = child of the
// trace root) and returns its index; End closes it; Span records an
// already-measured interval. Implementations must be safe for concurrent
// use: lanes run in parallel and record spans after the dispatch returns.
type BatchTracer interface {
	Begin(name string, lane, parent int) int
	End(idx int)
	Span(name string, lane, parent int, start time.Time, d time.Duration) int
}

// PipelineOptions tunes the sharding.
type PipelineOptions struct {
	// Shards is the number of ingest lanes. Zero or negative means
	// GOMAXPROCS. The value is clamped to the number of processes.
	Shards int

	// PlanQueue is the plan-queue depth in batches above one lane; zero or
	// negative means DefaultPlanQueue. It selects no code path — the lane
	// count does — and at one lane, where nothing is queued, it is not read.
	PlanQueue int
}

// item is one planned unit of lane work: the event plus the cluster epoch
// the planner pinned for it, as its index in the epoch table. Epoch 0 marks a
// noted cluster receive (the lane retains the full vector and publishes a
// note). bt is the traced run's span sink, nil for the (overwhelmingly
// common) unsampled runs.
type item struct {
	ev model.Event
	ep uint32
	bt BatchTracer
}

// stagedEpoch is the planner's memory of the epoch it last staged an item of
// one process under.
type stagedEpoch struct {
	cl *cluster.Info
	ep uint32
}

// Pipeline is the ingest engine. It embeds the lock-free read plane, so the
// entire query surface — the Views Live and At return, the live view's
// Timestamp, Event, Precedes and Concurrent spelled on the pipeline itself,
// and CaptureWatermark — is concurrent with stamping.
//
// The dispatch and accounting methods are safe for concurrent use; queries
// take no lock.
type Pipeline struct {
	plane

	nshards int
	smap    []int32 // process -> shard

	// adm is the delivery contract's one state machine (admit.go); its lock
	// is taken before every other lock of the pipeline.
	adm Admission

	// planMu guards the planner state below, core included.
	planMu  sync.Mutex
	core    *clusterer // the cluster-receive rule, its partition and accounting
	issued  []uint64   // items dispatched per shard
	curBufs [][]item   // per-shard staging buffers, capacity retained across batches

	// The epoch table's writer side (guarded by planMu; plane.epochs is what
	// is published): the epochs in index order, entry 0 nil; their indexes by
	// pointer — not by cluster.ID, because the hierarchy policy hands out
	// Infos of several Partitions whose IDs collide; and per process the last
	// epoch staged, which answers all but the first item after a merge with
	// one pointer comparison.
	epochList  []*cluster.Info
	epochIndex map[*cluster.Info]uint32
	lastEpoch  []stagedEpoch

	// decide is the plan stage's one decision hook, called with planMu held:
	// core.decide for every public constructor. The research variants
	// (batch.go, migrate.go, hier.go) install their policy over it.
	decide func(model.Event) *cluster.Info

	// Tracing state for the run being planned (guarded by planMu). curBT
	// tags staged items; stampStart/stampDur accumulate one-lane stamping
	// time, folded into one stamp span by unlockPlan.
	curBT      BatchTracer
	stampStart time.Time
	stampDur   time.Duration

	lanes []*lane
	rv    rendezvous
	wg    sync.WaitGroup

	// doneMu guards the per-shard lane progress: flushed counts the items
	// handed to a lane's queue, done the items it has stamped, and laneStats
	// and laneEnds are the lane's arena tallies and the offset its arena has
	// reached as of its last drained chunk. The lanes already take doneMu
	// once per chunk, so the tallies cost the per-event path nothing.
	doneMu    sync.Mutex
	doneCond  *sync.Cond
	flushed   []uint64
	done      []uint64
	laneStats []StoreStats
	laneEnds  []uint32

	wo atomic.Pointer[WaitObserver]

	// Planner-goroutine state (planner.go), idle at one lane. pq is the
	// bounded plan queue.
	pq        planQueue
	plannerWG sync.WaitGroup
	busy      atomic.Int64 // cumulative planner busy nanoseconds
	start     time.Time

	batchPool sync.Pool // *[]model.Event: the admitted batches the plan queue carries
	bwPool    sync.Pool // *barrierWait markers

	pqo atomic.Pointer[SizeObserver]
}

// NewPipeline returns a sharded pipeline over numProcs processes. The lane
// count picks its shape, here and nowhere else: with one shard (or one
// process) every dispatch stamps on the calling goroutine and no goroutine is
// started; with more, the lanes and the planner goroutine behind the plan
// queue are. Close releases them.
func NewPipeline(numProcs int, cfg Config, opt PipelineOptions) (*Pipeline, error) {
	clusterAligned := cfg.Partition != nil
	core, err := newClusterer(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	nshards := opt.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	if nshards > numProcs {
		nshards = numProcs
	}
	p := &Pipeline{
		plane:      newPlane(numProcs),
		core:       core,
		decide:     core.decide,
		nshards:    nshards,
		issued:     make([]uint64, nshards),
		epochList:  []*cluster.Info{nil},
		epochIndex: make(map[*cluster.Info]uint32),
		lastEpoch:  make([]stagedEpoch, numProcs),
		flushed:    make([]uint64, nshards),
		done:       make([]uint64, nshards),
		laneStats:  make([]StoreStats, nshards),
		laneEnds:   make([]uint32, nshards),
		start:      time.Now(),
	}
	initial := p.epochList // a header of its own: the field is reassigned by every append
	p.epochs.Store(&initial)
	p.adm.init(numProcs, p.storeRoom)
	p.doneCond = sync.NewCond(&p.doneMu)
	p.smap = buildShardMap(numProcs, nshards, core.part, clusterAligned)
	p.lanes = make([]*lane, nshards)
	for i := range p.lanes {
		ln := &lane{
			pl:         p,
			id:         int32(i),
			ar:         new(arena), // apart from the lane, whose fields are write-hot: readers load its chunk list
			frontier:   make([]vclock.Clock, numProcs),
			keys:       make([]projKey, numProcs),
			localSend:  make(map[model.EventID]vclock.Clock),
			prefetched: make(map[model.EventID]vclock.Clock),
		}
		ln.cond = sync.NewCond(&ln.mu)
		p.lanes[i] = ln
	}
	for proc, s := range p.smap {
		p.arenas[proc] = p.lanes[s].ar
	}
	if nshards > 1 {
		p.rv.init() // a lone lane never meets another
		p.curBufs = make([][]item, nshards)
		for i := range p.curBufs {
			p.curBufs[i] = make([]item, 0, 256)
		}
		for i := range p.lanes {
			p.wg.Add(1)
			go p.lanes[i].run()
		}
		depth := opt.PlanQueue
		if depth <= 0 {
			depth = DefaultPlanQueue
		}
		p.pq.init(depth)
		p.plannerWG.Add(1)
		go p.planner()
	}
	return p, nil
}

// buildShardMap assigns each process a shard. With a configured initial
// partition, whole clusters are packed greedily (largest first) onto the
// least-loaded shard, so intra-cluster messages stay on one lane; otherwise
// processes split into contiguous blocks, which keeps ring- and
// stencil-shaped neighbour traffic local.
func buildShardMap(numProcs, nshards int, part *cluster.Partition, clusterAligned bool) []int32 {
	smap := make([]int32, numProcs)
	if !clusterAligned || nshards == 1 {
		for p := 0; p < numProcs; p++ {
			smap[p] = int32(p * nshards / numProcs)
		}
		return smap
	}
	groups := part.Live() // ascending ID: deterministic
	// Stable largest-first order.
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i
		for j > 0 && groups[j-1].Size() < g.Size() {
			groups[j] = groups[j-1]
			j--
		}
		groups[j] = g
	}
	loads := make([]int, nshards)
	for _, g := range groups {
		best := 0
		for s := 1; s < nshards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		for _, m := range g.Members {
			smap[m] = int32(best)
		}
		loads[best] += g.Size()
	}
	return smap
}

// Close stops the planner (draining its queue) and then the lanes (draining
// theirs). Further dispatches fail with ErrPipelineClosed; the query surface
// stays usable.
func (p *Pipeline) Close() {
	// Closing the gate first means no dispatcher is between admitting and
	// enqueueing when the queue is told to stop: each holds the admission
	// lock across both.
	p.adm.mu.Lock()
	if p.adm.closed {
		p.adm.mu.Unlock()
		return
	}
	p.adm.closed = true
	p.adm.mu.Unlock()
	if p.nshards > 1 {
		// The planner must fully drain before the lanes are told to stop:
		// a lane exits once its queue is empty, so items flushed after that
		// would never be stamped.
		p.pq.mu.Lock()
		p.pq.stop = true
		p.pq.ready.Signal()
		p.pq.avail.Broadcast()
		p.pq.mu.Unlock()
		p.plannerWG.Wait()
		for _, ln := range p.lanes {
			ln.mu.Lock()
			ln.stop = true
			ln.cond.Signal()
			ln.mu.Unlock()
		}
		p.wg.Wait()
	}
}

// DispatchAsync is the batch entry point: it admits a run of events in
// delivery order and hands what they finalize to the plan stage. It returns on
// the first event the delivery contract rejects — prior events stay delivered,
// the rejected one changes no state — with its error wrapped as "at <id>:
// ...", synchronously at every lane count. With one lane the run is stamped
// and published on return. Above one lane the call returns once the admitted
// batch is on the plan queue (blocking only for backpressure when the queue is
// at its depth bound); use Barrier to wait for visibility. The caller may
// reuse events immediately either way.
//
// bt, nil for an unsampled run, is the span sink of a sampled one: it receives
// plan_wait (time blocked on the planner mutex, or queued behind earlier
// batches), plan (the cluster decisions; at one lane, fused with admission),
// and — at one lane — the inline stamp span. Above one lane stamping records
// per-lane spans asynchronously as the lanes drain.
func (p *Pipeline) DispatchAsync(events []model.Event, bt BatchTracer) error {
	if len(events) == 0 {
		return nil
	}
	p.adm.mu.Lock()
	defer p.adm.mu.Unlock()
	return p.dispatchLocked(events, bt, true)
}

// DispatchOne admits and plans a single event, returning the raw (unwrapped)
// contract error.
func (p *Pipeline) DispatchOne(e model.Event) error {
	events := [1]model.Event{e} // stays on the stack: neither shape retains the slice
	p.adm.mu.Lock()
	defer p.adm.mu.Unlock()
	return p.dispatchLocked(events[:], nil, false)
}

// DispatchAdmitted hands the plan stage a run its caller admitted event by
// event (Admission.Admit) under the hold of the admission lock it still has.
// Nothing is checked again and there is nothing to reject: the only error is
// ErrPipelineClosed. The caller may reuse run on return.
func (p *Pipeline) DispatchAdmitted(run []model.Event, bt BatchTracer) error {
	if len(run) == 0 {
		return nil
	}
	if p.adm.closed {
		return ErrPipelineClosed
	}
	if p.nshards == 1 {
		p.planRun(run, bt, time.Time{})
		return nil
	}
	bp := p.getBatch()
	*bp = append(*bp, run...)
	return p.handOff(bp, bt)
}

// Admission returns the pipeline's delivery-contract state, for a caller that
// assembles admitted runs itself (the collector) or needs to fence against
// one in flight (replay's coverage wait).
func (p *Pipeline) Admission() *Admission { return &p.adm }

// dispatchLocked is the one body of DispatchAsync and DispatchOne, called with
// the admission lock held: admit each event, stopping at the first rejection,
// and hand what the admitted prefix finalizes to the plan stage before the
// lock is released — at one lane, by deciding and stamping each event as it is
// admitted, with no buffer between; above one lane, by admitting straight into
// the pooled buffer the plan queue carries. wrap selects the batch form of a
// rejection, "at <id>: ...".
func (p *Pipeline) dispatchLocked(events []model.Event, bt BatchTracer, wrap bool) (err error) {
	a := &p.adm
	if a.closed {
		return ErrPipelineClosed
	}
	if err := a.reserve(len(events)); err != nil {
		return err
	}
	queued := p.nshards > 1
	var bp *[]model.Event
	if queued {
		bp = p.getBatch()
	} else {
		planSpan := p.lockPlan(bt, time.Time{})
		defer p.unlockPlan(bt, planSpan)
	}
	for i := range events {
		e := events[i]
		if err = a.CheckRecord(e); err == nil {
			err = a.checkStream(e)
		}
		if err != nil {
			if wrap {
				err = fmt.Errorf("at %v: %w", e.ID, err)
			}
			break
		}
		first, n := a.advance(e)
		switch {
		case n == 0: // first sync half: held until its partner arrives
		case queued:
			if n == 2 {
				*bp = append(*bp, first)
			}
			*bp = append(*bp, e)
		default:
			if n == 2 {
				p.plan(first)
			}
			p.plan(e)
		}
	}
	if queued {
		if qerr := p.handOff(bp, bt); qerr != nil {
			return qerr
		}
	}
	return err
}

// getBatch takes an empty batch buffer from the pool; handOff puts it, filled
// with admitted events, on the plan queue (or straight back when the batch
// finalized nothing).
func (p *Pipeline) getBatch() *[]model.Event {
	bp, _ := p.batchPool.Get().(*[]model.Event)
	if bp == nil {
		bp = new([]model.Event)
	}
	*bp = (*bp)[:0]
	return bp
}

func (p *Pipeline) handOff(bp *[]model.Event, bt BatchTracer) error {
	if len(*bp) == 0 {
		p.batchPool.Put(bp)
		return nil
	}
	req := planReq{events: *bp, owned: bp, bt: bt}
	if bt != nil {
		req.enq = time.Now()
	}
	if err := p.enqueue(req); err != nil {
		p.batchPool.Put(bp)
		return err
	}
	return nil
}

// planRun plans an admitted run: the cluster decisions, staging, and the flush
// to the lanes.
func (p *Pipeline) planRun(run []model.Event, bt BatchTracer, waitStart time.Time) {
	planSpan := p.lockPlan(bt, waitStart)
	for i := range run {
		p.plan(run[i])
	}
	p.unlockPlan(bt, planSpan)
}

// lockPlan takes planMu and, for a traced run, opens its plan stage: the
// plan_wait span since waitStart (zero: since this call, the time spent
// blocked on the mutex), then the plan span, whose index it returns.
func (p *Pipeline) lockPlan(bt BatchTracer, waitStart time.Time) (planSpan int) {
	if bt != nil && waitStart.IsZero() {
		waitStart = time.Now()
	}
	p.planMu.Lock()
	if bt == nil {
		return -1
	}
	bt.Span("plan_wait", -1, -1, waitStart, time.Since(waitStart))
	p.curBT = bt
	return bt.Begin("plan", -1, -1)
}

// unlockPlan flushes what was staged to the lanes, closes what lockPlan
// opened — folding one-lane stamping into one stamp span under the plan span —
// and releases planMu.
func (p *Pipeline) unlockPlan(bt BatchTracer, planSpan int) {
	p.flushLocked()
	if bt != nil {
		if p.stampDur > 0 {
			bt.Span("stamp", 0, planSpan, p.stampStart, p.stampDur)
			p.stampDur = 0
		}
		p.curBT = nil
		bt.End(planSpan)
	}
	p.planMu.Unlock()
}

// plan makes one admitted event's cluster decision — inherently sequential:
// each merge can repartition the processes the next decision consults — and
// stages it for its lane. It cannot fail. Called with planMu held.
func (p *Pipeline) plan(e model.Event) {
	p.stageItem(e, p.decide(e))
}

// stageItem hands one planned item to its lane (inline with one shard),
// naming its epoch by index: the one place an epoch enters the epoch table,
// published here, before the item that names it can reach a lane.
func (p *Pipeline) stageItem(e model.Event, cl *cluster.Info) {
	it := item{ev: e, bt: p.curBT}
	if cl != nil {
		last := &p.lastEpoch[e.ID.Process]
		if last.cl != cl {
			ep, known := p.epochIndex[cl]
			if !known {
				ep = uint32(len(p.epochList))
				p.epochList = append(p.epochList, cl)
				p.epochIndex[cl] = ep
				d := p.epochList
				p.epochs.Store(&d)
			}
			*last = stagedEpoch{cl, ep}
		}
		it.ep = last.ep
	}
	if p.nshards == 1 {
		if p.curBT != nil {
			// Inline stamping: accumulate into one stamp span (emitted by
			// the dispatching path) instead of one span per event.
			t0 := time.Now()
			p.lanes[0].process(&it)
			if p.stampDur == 0 {
				p.stampStart = t0
			}
			p.stampDur += time.Since(t0)
		} else {
			p.lanes[0].process(&it)
		}
		p.issued[0]++
		return
	}
	s := p.smap[e.ID.Process]
	p.curBufs[s] = append(p.curBufs[s], it)
	p.issued[s]++
}

// maxLaneBacklog bounds a lane's queue: the planner flushes a batch only once
// every lane holds fewer than this many flushed-but-unstamped items, so a lane
// queue (and the capacity it keeps) never exceeds maxLaneBacklog plus one
// batch however far the lanes fall behind. Eight 1024-event frames' worth on
// two lanes: deep enough that a lane never idles while the planner plans the
// next batch.
const maxLaneBacklog = 4096

// flushLocked appends the staged items to their lanes, preserving planner
// order per lane. Called with planMu held, so cross-batch lane order equals
// planner order.
//
// It first waits for room (maxLaneBacklog) and then flushes the batch whole,
// never part of it: lanes only ever hold complete batches, and every item of
// a flushed batch depends only on items flushed with or before it (a send is
// dispatched before its receive; sync halves are staged adjacently), so the
// lanes drain what they hold without the batch being held back here and the
// wait always ends — the deadlock argument of the file comment is untouched.
func (p *Pipeline) flushLocked() {
	if p.nshards == 1 {
		return
	}
	p.doneMu.Lock()
	for s, buf := range p.curBufs {
		if len(buf) == 0 {
			continue
		}
		for p.flushed[s]-p.done[s] >= maxLaneBacklog {
			p.doneCond.Wait()
		}
		p.flushed[s] = p.issued[s] // issued already counts the staged items
	}
	p.doneMu.Unlock()
	for s, buf := range p.curBufs {
		if len(buf) == 0 {
			continue
		}
		ln := p.lanes[s]
		ln.mu.Lock()
		ln.queue = append(ln.queue, buf...)
		ln.cond.Signal()
		ln.mu.Unlock()
		p.curBufs[s] = buf[:0]
	}
}

func covered(done, snap []uint64) bool {
	for i, want := range snap {
		if done[i] < want {
			return false
		}
	}
	return true
}

// SetWaitObserver installs the observer for blocking cross-shard waits.
func (p *Pipeline) SetWaitObserver(o WaitObserver) {
	if o == nil {
		p.wo.Store(nil)
		return
	}
	p.wo.Store(&o)
}

func (p *Pipeline) observeWait(d time.Duration) {
	if op := p.wo.Load(); op != nil {
		(*op).Observe(d)
	}
}

// IngestShards returns the number of ingest lanes.
func (p *Pipeline) IngestShards() int { return p.nshards }

// ShardEventsInto appends the per-shard dispatched-item counts to buf.
func (p *Pipeline) ShardEventsInto(buf []uint64) []uint64 {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return append(buf, p.issued...)
}

// CrossShardWaits returns the total number of blocking rendezvous waits.
func (p *Pipeline) CrossShardWaits() int64 {
	var total int64
	for _, ln := range p.lanes {
		total += ln.waits.Load()
	}
	return total
}

// LaneQueueDepthsInto appends, per ingest lane, the number of items flushed
// to the lane and not yet stamped — at most maxLaneBacklog plus one batch. A
// depth that stays put while events arrive is a stalled lane. Always zero on
// the lone lane, which stamps as it plans.
func (p *Pipeline) LaneQueueDepthsInto(buf []uint64) []uint64 {
	p.doneMu.Lock()
	defer p.doneMu.Unlock()
	for s := range p.done {
		buf = append(buf, p.flushed[s]-p.done[s])
	}
	return buf
}

// StoreStats returns the column store's physical tallies, summed over the
// lanes. Like Result it can trail dispatched work; it is exact after Barrier.
func (p *Pipeline) StoreStats() StoreStats {
	var total StoreStats
	var cells uint64
	if p.nshards == 1 {
		p.planMu.Lock() // the lone lane stamps under the planner mutex
		total, cells = p.lanes[0].ar.stats, p.issued[0]
		p.planMu.Unlock()
	} else {
		p.doneMu.Lock()
		for s, st := range p.laneStats {
			total.add(st)
			cells += p.done[s]
		}
		p.doneMu.Unlock()
	}
	total.CellBytes = cellBytes * int64(cells)
	total.NoteBytes = noteBytes * (total.Keyframes + total.DeltaFrames + total.NibbleFrames)
	total.Epochs = int64(len(*p.epochs.Load()) - 1)
	return total
}

// storeRoom is the admission gate's slow path (Admission.reserve), called
// with the admission lock held: how many more events may be admitted before
// the gate has to ask again, from the offset every lane's arena has published
// and the size of the epoch table.
func (p *Pipeline) storeRoom() int64 {
	ends := make([]uint32, p.nshards)
	var stamped uint64
	if p.nshards == 1 {
		p.planMu.Lock()
		ends[0], stamped = p.lanes[0].ar.end(), p.issued[0]
		p.planMu.Unlock()
	} else {
		p.doneMu.Lock()
		copy(ends, p.laneEnds)
		for _, n := range p.done {
			stamped += n
		}
		p.doneMu.Unlock()
	}
	var admitted uint64
	for _, next := range p.adm.next {
		admitted += uint64(next - 1)
	}
	return roomFor(ends, len(*p.epochs.Load()), int64(admitted-stamped), p.numProcs)
}

// roomFor is the store-limit rule. ends are the offsets the lane arenas had
// reached, and epochs the size of the epoch table, when unstamped admitted
// events were not yet counted in either. A carve moves its lane's offset by
// less than twice its size — the unused remainder of a chunk is shorter than
// the carve that did not fit in it — and one event carves at most once: a
// projection (arena.project) and a noted cluster receive (arena.frame) each
// test their forms in the lane's scratch before they carve. The largest carve
// is a keyframe, which for a projection over every process brings its epoch
// element and its own byte frame along; perEvent counts one byte frame more
// besides, an over-count, which only makes the gate refuse sooner. An event
// appends at most one epoch. Any of the unstamped events, and of those
// admitted from here on, may land on the fullest lane.
func roomFor(ends []uint32, epochs int, unstamped int64, numProcs int) int64 {
	frame := int64(1 + packedWords(numProcs, byteLg)) // a byte frame over every process
	perEvent := 2 * (frame + 1 + int64(numProcs) + frame)
	room := int64(epochLimit - epochs)
	for _, end := range ends {
		room = min(room, (arenaLimit-int64(end))/perEvent)
	}
	return room - unstamped
}

// Result returns the clusterer's accounting as one snapshot, read under one
// hold of the planner mutex: above one lane the planner goroutine can plan a
// whole batch between two separate acquisitions, so this is the only read of
// the counters. It reflects planned work, which may be ahead of what is
// published; call Barrier first for an exact snapshot.
func (p *Pipeline) Result() Result {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.core.result()
}

// Events returns Result().Events, the events finalized by the planner.
func (p *Pipeline) Events() int { return p.Result().Events }

// ClusterReceives returns Result().ClusterReceives, the noted (non-merged)
// cluster receives.
func (p *Pipeline) ClusterReceives() int { return p.Result().ClusterReceives }

// Merges returns Result().Merges, the cluster merges performed.
func (p *Pipeline) Merges() int { return p.Result().Merges }

// StorageInts returns the vector elements occupied by all stored timestamps
// under the fixed-size encoding: StorageInts over one Result.
func (p *Pipeline) StorageInts(fixedVector int) int64 {
	r := p.Result()
	return StorageInts(r.Events, r.ClusterReceives, fixedVector, r.MaxClusterSize)
}

// LiveSizesInto appends the live cluster sizes to buf: the partition's shape,
// which no counter of Result carries.
func (p *Pipeline) LiveSizesInto(buf []int) []int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.core.part.LiveSizesInto(buf)
}

// PendingSends returns the number of admitted sends awaiting their receive.
func (p *Pipeline) PendingSends() int {
	p.adm.mu.Lock()
	defer p.adm.mu.Unlock()
	return len(p.adm.pendSend)
}

// FrontierNext returns, per process, the index of the next unadmitted
// event.
func (p *Pipeline) FrontierNext() []model.EventIndex {
	p.adm.mu.Lock()
	defer p.adm.mu.Unlock()
	return append([]model.EventIndex(nil), p.adm.next...)
}

// heldSync is a lane's half-completed same-shard synchronous pair, held by
// value in the lane: a half is held while base is non-nil.
type heldSync struct {
	it   item
	base vclock.Clock // first half's own base clock, not yet joined
}

// lane is one ingest shard: a queue of planned items and the writer-private
// stamping state for its processes.
type lane struct {
	pl *Pipeline
	id int32

	mu    sync.Mutex
	cond  *sync.Cond
	queue []item
	spare []item // recycled chunk buffer (double-buffer swap)
	stop  bool

	frontier  []vclock.Clock // per process; only this lane's entries are used
	keys      []projKey      // per process, likewise: its current projection keyframe, anchor and last frame
	free      []vclock.Clock // retired clocks, reused for retained copies
	ar        *arena
	localSend map[model.EventID]vclock.Clock // same-lane in-flight sends
	held      heldSync

	// Batched rendezvous state (see the file comment). pendPuts buffers
	// outbound cross-lane send clocks per stripe; pendN counts them so the
	// empty check is one comparison. Buffered puts are flushed under one
	// stripe-lock acquisition each — before every blocking operation and at
	// the end of each chunk. want is the per-stripe scratch for the chunk
	// prescan; prefetched holds the clocks it claimed, consumed by this
	// chunk's receives.
	pendPuts   [rvStripes][]rvPut
	pendN      int
	want       [rvStripes][]model.EventID
	prefetched map[model.EventID]vclock.Clock

	// curBT/curSpan name the traced run whose items are being processed,
	// so rendezvous waits attach as children of the lane's stamp span.
	// Lane-goroutine-private (single-shard: written under planMu).
	curBT   BatchTracer
	curSpan int

	waits atomic.Int64 // blocking cross-shard waits
}

// run drains the queue until stopped, in chunks: all currently queued items
// are claimed in one lock acquisition, processed, then reported done.
func (ln *lane) run() {
	defer ln.pl.wg.Done()
	for {
		ln.mu.Lock()
		for len(ln.queue) == 0 && !ln.stop {
			ln.cond.Wait()
		}
		if len(ln.queue) == 0 {
			ln.mu.Unlock()
			return
		}
		chunk := ln.queue
		ln.queue = ln.spare[:0]
		ln.mu.Unlock()
		ln.prefetchTakes(chunk)
		// Contiguous items from the same traced run share one stamp span;
		// a chunk can interleave items from many dispatches, traced or not.
		for i := 0; i < len(chunk); {
			bt := chunk[i].bt
			if bt == nil {
				ln.process(&chunk[i])
				i++
				continue
			}
			sp := bt.Begin("stamp", int(ln.id), -1)
			ln.curBT, ln.curSpan = bt, sp
			for i < len(chunk) && chunk[i].bt == bt {
				ln.process(&chunk[i])
				i++
			}
			ln.curBT, ln.curSpan = nil, -1
			bt.End(sp)
		}
		// Flush buffered puts before the done update and before blocking on
		// an empty queue: another lane may need them to finish its chunk.
		ln.flushPuts()
		ln.spare = chunk[:0]
		ln.pl.doneMu.Lock()
		ln.pl.done[ln.id] += uint64(len(chunk))
		ln.pl.laneStats[ln.id], ln.pl.laneEnds[ln.id] = ln.ar.stats, ln.ar.end()
		ln.pl.doneCond.Broadcast()
		ln.pl.doneMu.Unlock()
	}
}

// prefetchTakes prescans a claimed chunk and claims, per stripe under one
// lock acquisition, every already-published clock its cross-lane receives
// will need. Misses stay in the rendezvous and fall back to the blocking
// take. Claiming early cannot starve another lane: each send has exactly one
// receive, and the shard map routes it here; and every claimed clock is
// consumed before the chunk ends, because the receive that needs it is in
// this chunk and lanes never abandon items.
func (ln *lane) prefetchTakes(chunk []item) {
	n := 0
	for i := range chunk {
		e := &chunk[i].ev
		if e.Kind == model.Receive && ln.pl.smap[e.Partner.Process] != ln.id {
			s := stripeIdx(e.Partner)
			ln.want[s] = append(ln.want[s], e.Partner)
			n++
		}
	}
	if n == 0 {
		return
	}
	for s := range ln.want {
		ids := ln.want[s]
		if len(ids) == 0 {
			continue
		}
		st := &ln.pl.rv.stripes[s]
		st.mu.Lock()
		for _, id := range ids {
			if clk, ok := st.clocks[id]; ok {
				delete(st.clocks, id)
				ln.prefetched[id] = clk
			}
		}
		st.mu.Unlock()
		ln.want[s] = ids[:0]
	}
}

// flushPuts publishes the buffered cross-lane send clocks: one stripe-lock
// acquisition and one wakeup per non-empty stripe, however many clocks it
// carries. MUST be called before any operation that can block — a buffered
// put may be exactly the clock another lane is blocked on.
func (ln *lane) flushPuts() {
	if ln.pendN == 0 {
		return
	}
	for s := range ln.pendPuts {
		ps := ln.pendPuts[s]
		if len(ps) == 0 {
			continue
		}
		st := &ln.pl.rv.stripes[s]
		st.mu.Lock()
		for _, pu := range ps {
			st.clocks[pu.id] = pu.clk
		}
		st.cond.Broadcast()
		st.mu.Unlock()
		// Ownership moved to the takers; drop the references so the buffer
		// does not pin clocks now recycled by other lanes.
		for j := range ps {
			ps[j] = rvPut{}
		}
		ln.pendPuts[s] = ps[:0]
	}
	ln.pendN = 0
}

// process stamps one planned item: the Fidge/Mattern clock step (the same
// computation as package fm's ObserveBorrowed, restricted to this lane's
// processes) followed by stamp.
func (ln *lane) process(it *item) {
	e := it.ev
	if e.Kind == model.Sync {
		ln.processSync(it)
		return
	}
	clk := ln.bump(e)
	if e.Kind == model.Receive {
		sclk := ln.takeSend(e.Partner)
		clk.MaxInto(sclk)
		ln.free = append(ln.free, sclk)
	}
	ln.stamp(e, clk, it.ep)
	if e.Kind == model.Send {
		// Forward only after publishing the cell and note: a clock visible
		// to another lane must count only published events (see the file
		// comment).
		ln.forwardSend(e, clk)
	}
}

// processSync stamps one half of a synchronous pair. Same-lane pairs
// complete locally (the planner dispatches the halves adjacently);
// cross-lane pairs run the two-round exchange described in the file
// comment.
func (ln *lane) processSync(it *item) {
	e := it.ev
	if ln.pl.smap[e.Partner.Process] == ln.id {
		if ln.held.base == nil {
			ln.held = heldSync{it: *it, base: ln.ownClock(e)}
			return
		}
		first := ln.held
		ln.held = heldSync{}
		clk := ln.bump(e)
		clk.MaxInto(first.base)
		ln.free = append(ln.free, first.base)
		p1 := first.it.ev.ID.Process
		f1 := ln.frontier[p1]
		if f1 == nil {
			f1 = vclock.New(ln.pl.numProcs)
			ln.frontier[p1] = f1
		}
		f1.CopyFrom(clk)
		ln.stamp(first.it.ev, f1, first.it.ep)
		ln.stamp(e, clk, it.ep)
		return
	}

	// The exchange below blocks; buffered puts must be visible first.
	ln.flushPuts()

	// Round 1: exchange base clocks (put before take: no deadlock) and
	// stamp the joint clock. max is commutative, so both sides compute the
	// identical vector.
	base := ln.ownClock(e)
	ln.pl.rv.put(e.ID, base)
	pclk, waited := ln.pl.rv.take(e.Partner)
	ln.noteWait(waited)
	joint := ln.bump(e) // frontier now equals base
	joint.MaxInto(pclk)
	ln.free = append(ln.free, pclk)
	ln.stamp(e, joint, it.ep)

	// Round 2: our joint clock counts the partner's own event, so later
	// items of this lane must not forward it until the partner's cell and
	// note are published.
	ln.pl.rv.putDone(e.ID)
	waited = ln.pl.rv.takeDone(e.Partner)
	ln.noteWait(waited)
}

func (ln *lane) noteWait(d time.Duration) {
	if d > 0 {
		ln.waits.Add(1)
		ln.pl.observeWait(d)
		if ln.curBT != nil {
			// The wait just ended; back-date its start from the duration.
			ln.curBT.Span("xwait", int(ln.id), ln.curSpan, time.Now().Add(-d), d)
		}
	}
}

// bump advances the frontier of e's process in place and returns it.
func (ln *lane) bump(e model.Event) vclock.Clock {
	p := e.ID.Process
	clk := ln.frontier[p]
	if clk == nil {
		clk = vclock.New(ln.pl.numProcs)
		ln.frontier[p] = clk
	}
	clk[p]++
	return clk
}

// ownClock returns a private copy of e's base clock (predecessor's clock
// with the own component incremented) without advancing the frontier.
func (ln *lane) ownClock(e model.Event) vclock.Clock {
	p := e.ID.Process
	var clk vclock.Clock
	if prev := ln.frontier[p]; prev != nil {
		clk = ln.retain(prev)
	} else {
		clk = vclock.New(ln.pl.numProcs)
	}
	clk[p]++
	return clk
}

// retain copies clk into a (possibly recycled) private vector.
func (ln *lane) retain(clk vclock.Clock) vclock.Clock {
	if n := len(ln.free); n > 0 {
		cp := ln.free[n-1]
		ln.free = ln.free[:n-1]
		cp.CopyFrom(clk)
		return cp
	}
	return clk.Clone()
}

// forwardSend parks a private copy of the send's finalized clock where its
// receive will look: the lane-local map for a same-lane receiver, the
// per-stripe put buffer (flushed in batches) for a cross-lane one.
func (ln *lane) forwardSend(e model.Event, clk vclock.Clock) {
	cp := ln.retain(clk)
	if ln.pl.smap[e.Partner.Process] == ln.id {
		ln.localSend[e.ID] = cp
		return
	}
	s := stripeIdx(e.ID)
	ln.pendPuts[s] = append(ln.pendPuts[s], rvPut{id: e.ID, clk: cp})
	ln.pendN++
}

// takeSend fetches the matching send's clock — lane-local map, then the
// chunk's prefetched claims, then the blocking rendezvous take. The caller
// owns the result and should recycle it after use.
func (ln *lane) takeSend(sendID model.EventID) vclock.Clock {
	if clk, ok := ln.localSend[sendID]; ok {
		delete(ln.localSend, sendID)
		return clk
	}
	if clk, ok := ln.prefetched[sendID]; ok {
		delete(ln.prefetched, sendID)
		return clk
	}
	ln.flushPuts() // about to block: buffered puts must be visible first
	clk, waited := ln.pl.rv.take(sendID)
	ln.noteWait(waited)
	return clk
}

// stamp converts a finalized clock into the event's stored cell and
// publishes it — the only writer of column cells and cluster-receive notes:
// note before cell, cell write before watermark store. The vector — a frame
// over the process's current keyframe of its kind, projection or cluster
// receive, or a new keyframe (store.go) — is carved from the lane arena: no
// allocation per event. A send or a unary event changes no component but its
// own, which is its index, so under the epoch of the projection just before it
// in its process it carves nothing and its cell names that projection's frame.
// The cell keeps no epoch: a projection's is its keyframe's, which is why a
// frame is shared only under the same one. It cannot fail: the admission gate
// let the event in only with room for it (storeRoom), and the planner
// published epoch ep before the item reached this lane.
func (ln *lane) stamp(e model.Event, clk vclock.Clock, ep uint32) {
	p := e.ID.Process
	k := &ln.keys[p]
	var vec uint32
	if ep == 0 {
		// The note is published before the cell: see store.go.
		vec = uint32(appendNote(&ln.pl.crs[p], ln.ar, int32(e.ID.Index), clk))
		k.live = false
	} else if k.live && k.ep == ep && (e.Kind == model.Unary || e.Kind == model.Send) {
		vec = k.last
		ln.ar.stats.ProjShared++
	} else {
		clk[p] = 0 // not stored: readers take the own component from the slot
		vec = ln.ar.project(k, ep, clk, ln.pl.epoch(ep).Members)
		clk[p] = int32(e.ID.Index)
	}
	ln.pl.cols[p].append(newCell(ep == 0, e.Kind, vec))
	ln.pl.cols[p].publish()
}

// rvStripes is the number of rendezvous stripes (a power of two; the stripe
// hash masks with rvStripes-1).
const rvStripes = 64

// rvPut is one buffered cross-lane send clock awaiting a batched publish.
type rvPut struct {
	id  model.EventID
	clk vclock.Clock
}

// rendezvous is the cross-shard meeting point: a striped map from event ID
// to a finalized clock (sends and sync base clocks) plus a published-mark
// set (sync round 2). Striping keeps unrelated waits off each other's lock.
type rendezvous struct {
	stripes [rvStripes]rvStripe
}

type rvStripe struct {
	mu     sync.Mutex
	cond   sync.Cond
	clocks map[model.EventID]vclock.Clock
	marks  map[model.EventID]struct{}
}

func (rv *rendezvous) init() {
	for i := range rv.stripes {
		s := &rv.stripes[i]
		s.cond.L = &s.mu
		s.clocks = make(map[model.EventID]vclock.Clock)
		s.marks = make(map[model.EventID]struct{})
	}
}

func stripeIdx(id model.EventID) uint32 {
	h := uint32(id.Process)*0x9E3779B1 ^ uint32(id.Index)*0x85EBCA6B
	return h & (rvStripes - 1)
}

func (rv *rendezvous) stripeFor(id model.EventID) *rvStripe {
	return &rv.stripes[stripeIdx(id)]
}

// put publishes a clock under id. Ownership transfers to the taker.
func (rv *rendezvous) put(id model.EventID, clk vclock.Clock) {
	s := rv.stripeFor(id)
	s.mu.Lock()
	s.clocks[id] = clk
	s.cond.Broadcast()
	s.mu.Unlock()
}

// take blocks until a clock is published under id, consumes it, and
// reports how long the caller was blocked (zero if it never waited).
func (rv *rendezvous) take(id model.EventID) (vclock.Clock, time.Duration) {
	s := rv.stripeFor(id)
	var waited time.Duration
	s.mu.Lock()
	clk, ok := s.clocks[id]
	if !ok {
		start := time.Now()
		for !ok {
			s.cond.Wait()
			clk, ok = s.clocks[id]
		}
		waited = time.Since(start)
	}
	delete(s.clocks, id)
	s.mu.Unlock()
	return clk, waited
}

// putDone marks id's cell and note as published.
func (rv *rendezvous) putDone(id model.EventID) {
	s := rv.stripeFor(id)
	s.mu.Lock()
	s.marks[id] = struct{}{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// takeDone blocks until id is marked published and consumes the mark.
func (rv *rendezvous) takeDone(id model.EventID) time.Duration {
	s := rv.stripeFor(id)
	var waited time.Duration
	s.mu.Lock()
	_, ok := s.marks[id]
	if !ok {
		start := time.Now()
		for !ok {
			s.cond.Wait()
			_, ok = s.marks[id]
		}
		waited = time.Since(start)
	}
	delete(s.marks, id)
	s.mu.Unlock()
	return waited
}
