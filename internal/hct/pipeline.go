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
// DispatchAsync and dispatchOne share one body (dispatchLocked): lock
// admission, admit the batch — stopping at the first rejection; the prefix
// stays admitted, the rejected event changes nothing [check-before-mutate] —
// hand the finalized events to the plan stage, unlock, return the error. The
// error is returned by the call that submitted the offending event at every
// lane count, and planning itself cannot fail: what reaches the planner has
// been admitted. There is one plan stage [decide-in-order].
//
// # Steps, and who calls them
//
// Each stage is one step body; the lane count decides only who calls it. A
// dispatch admits into a pooled batch and hands it off (handOff) to the plan
// step (planRun), which stages each decided event for its lane; flushLocked
// passes the staged items on to the lane steps (lane.drain: begin, step per
// item, end). A step that needs a clock not yet published returns what it is
// blocked on instead of sleeping; rendezvous.wait is where a lane sleeps. At
// one lane the dispatching goroutine calls every step inline — flushLocked
// drains every inlineChunk staged items and at the end of the run — so no
// goroutine runs and Barrier is a no-op. Above one lane handOff queues the
// batch for the planner goroutine (planner.go), flushLocked queues the items
// for the lane goroutines, and both are wait → step loops over the same
// steps: journaling batch N+1 overlaps planning batch N, which overlaps
// stamping batch N-1. sched_test.go calls the steps from one goroutine in
// seeded orders.
//
// # Lock order
//
// collector mu (internal/monitor) → admission → plan queue / planMu → doneMu
// → lane. planMu and the plan queue's lock are never held together
// [lock-order].
//
// # Cross-shard rendezvous
//
// A receive needs the matching send's finalized clock. Same-lane sends park
// it in a lane-local map; cross-lane sends publish it to a striped
// rendezvous table keyed by send ID, where the receiver's lane blocks until
// it appears. A lane forwards a clock only after it published the event's
// cell and note [put-after-publish], and a wait is always on a send at or
// ahead of the other lane's cursor, so it ends [waits-point-forward].
//
// Rendezvous traffic is batched per chunk. Outbound: a lane buffers its
// cross-lane send clocks per stripe and flushes each stripe's batch under
// one lock acquisition (one wakeup) instead of one per event, before every
// blocked return of a step (lane.block) and at the end of each chunk
// [flush-before-block]. Inbound: when a lane begins a chunk it prescans it
// and claims every already-published clock its cross-lane receives will
// need, grouped per stripe, under one lock acquisition each (prefetchTakes);
// misses fall back to the step's own tryTake.
//
// Lane queues are bounded (maxLaneBacklog): the planner holds a planned batch
// back until every lane it feeds has room, and then hands it over whole
// [flush-whole-batches].
//
// Synchronous pairs are a joint event: both halves carry the identical join
// of the two sides' base clocks. A same-lane pair completes locally (the
// planner dispatches both halves adjacently). A cross-lane pair runs a
// two-round exchange: (1) each side publishes its own base clock keyed by
// its own ID, then takes the partner's [waits-point-forward], and stamps its
// half with the join; (2) each side marks its half published and waits for
// the partner's mark before processing further items, because the joint
// clock counts the partner's event [put-after-publish].
//
// # Barrier
//
// Above one lane a dispatch is asynchronous; Barrier blocks until every item
// dispatched before the call has been stamped and published. The planner
// counts issued items per shard; lanes count completed items per drained
// chunk. A held first sync half is not "issued": the pair stays unstamped
// until the partner arrives. The issued counts lag the accepted batches, so
// Barrier counts planned items through a marker on the plan queue (planner.go).

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
	// is the outermost of the pipeline's [lock-order].
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
	// tags staged items; planSpan is its plan span, the parent of the stamp
	// spans a one-lane drain records inline.
	curBT    BatchTracer
	planSpan int

	// drainAt is the staged count at which stageItem flushes mid-run:
	// inlineChunk at one lane, which drains inline; 0 (never) above, whose
	// lanes take a planned batch only whole.
	drainAt int

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
	since     time.Time    // construction, for PlannerOccupancy

	batchPool sync.Pool // *[]model.Event: the admitted batches the plan queue carries
	bwPool    sync.Pool // *barrierWait markers

	pqo atomic.Pointer[SizeObserver]
}

// NewPipeline returns a sharded pipeline over numProcs processes, started;
// Close releases it.
func NewPipeline(numProcs int, cfg Config, opt PipelineOptions) (*Pipeline, error) {
	p, err := newPipeline(numProcs, cfg, opt)
	if err != nil {
		return nil, err
	}
	p.start()
	return p, nil
}

// inlineChunk is how many staged items a one-lane run drains at a time.
const inlineChunk = 256

// newPipeline builds a pipeline whose steps can be called; it starts nothing.
func newPipeline(numProcs int, cfg Config, opt PipelineOptions) (*Pipeline, error) {
	core, err := newClusterer(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	nshards := opt.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	nshards = min(nshards, numProcs)
	p := &Pipeline{
		plane:      newPlane(numProcs),
		core:       core,
		decide:     core.decide,
		nshards:    nshards,
		issued:     make([]uint64, nshards),
		curBufs:    make([][]item, nshards),
		epochList:  []*cluster.Info{nil},
		epochIndex: make(map[*cluster.Info]uint32),
		lastEpoch:  make([]stagedEpoch, numProcs),
		flushed:    make([]uint64, nshards),
		done:       make([]uint64, nshards),
		laneStats:  make([]StoreStats, nshards),
		laneEnds:   make([]uint32, nshards),
		since:      time.Now(),
	}
	if nshards == 1 {
		p.drainAt = inlineChunk
	}
	initial := p.epochList // a header of its own: the field is reassigned by every append
	p.epochs.Store(&initial)
	p.adm.init(numProcs, p.storeRoom)
	p.doneCond = sync.NewCond(&p.doneMu)
	p.smap = buildShardMap(numProcs, nshards, core.part, cfg.Partition != nil)
	p.rv.init()
	if opt.PlanQueue <= 0 {
		opt.PlanQueue = DefaultPlanQueue
	}
	p.pq.init(opt.PlanQueue)
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
		p.curBufs[i] = make([]item, 0, inlineChunk)
	}
	for proc, s := range p.smap {
		p.arenas[proc] = p.lanes[s].ar
	}
	return p, nil
}

// start starts, above one lane, the goroutines that call the steps: one per
// lane and the planner. At one lane the dispatching goroutine calls them.
func (p *Pipeline) start() {
	if p.nshards == 1 {
		return
	}
	for _, ln := range p.lanes {
		p.wg.Add(1)
		go ln.run()
	}
	p.plannerWG.Add(1)
	go p.planner()
}

// buildShardMap assigns each process a shard. With a configured initial
// partition, whole clusters are packed greedily (largest first) onto the
// least-loaded shard, so intra-cluster messages stay on one lane; otherwise
// processes split into contiguous blocks, which keeps ring- and
// stencil-shaped neighbour traffic local.
func buildShardMap(numProcs, nshards int, part *cluster.Partition, clusterAligned bool) []int32 {
	smap := make([]int32, numProcs)
	if !clusterAligned {
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
	// The planner must fully drain before the lanes are told to stop: a lane
	// exits once its queue is empty, so items flushed after that would never
	// be stamped. At one lane both waits return at once.
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
// batches), plan (the cluster decisions), and stamp spans — at one lane under
// plan, recorded inline; above one lane per lane, asynchronously as the lanes
// drain.
func (p *Pipeline) DispatchAsync(events []model.Event, bt BatchTracer) error {
	if len(events) == 0 {
		return nil
	}
	p.adm.mu.Lock()
	defer p.adm.mu.Unlock()
	return p.dispatchLocked(events, bt, true)
}

// dispatchOne admits and plans a single event, returning the raw (unwrapped)
// contract error.
func (p *Pipeline) dispatchOne(e model.Event) error {
	events := [1]model.Event{e} // stays on the stack: the batch is a copy
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
	bp := p.getBatch()
	*bp = append(*bp, run...)
	return p.handOff(bp, bt)
}

// Admission returns the pipeline's delivery-contract state, for a caller that
// assembles admitted runs itself (the collector) or needs to fence against
// one in flight (replay's coverage wait).
func (p *Pipeline) Admission() *Admission { return &p.adm }

// dispatchLocked is the one body of DispatchAsync and dispatchOne, called with
// the admission lock held: admit each event into the pooled batch, stopping at
// the first rejection, and hand what the admitted prefix finalizes to the plan
// stage before the lock is released. wrap selects the batch form of a
// rejection, "at <id>: ...".
func (p *Pipeline) dispatchLocked(events []model.Event, bt BatchTracer, wrap bool) (err error) {
	a := &p.adm
	if a.closed {
		return ErrPipelineClosed
	}
	if err := a.reserve(len(events)); err != nil {
		return err
	}
	bp := p.getBatch()
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
		// n == 0: a first sync half, held until its partner arrives.
		if first, n := a.advance(e); n == 2 {
			*bp = append(*bp, first, e)
		} else if n == 1 {
			*bp = append(*bp, e)
		}
	}
	if herr := p.handOff(bp, bt); herr != nil {
		return herr
	}
	return err
}

// getBatch takes an empty batch buffer from the pool, for handOff.
func (p *Pipeline) getBatch() *[]model.Event {
	bp, _ := p.batchPool.Get().(*[]model.Event)
	if bp == nil {
		bp = new([]model.Event)
	}
	*bp = (*bp)[:0]
	return bp
}

// handOff is the one hand-off of an admitted batch to the plan stage, under
// the admission lock: at one lane it plans (and so stamps) the batch inline;
// above one it puts it on the plan queue, which then owns the buffer.
func (p *Pipeline) handOff(bp *[]model.Event, bt BatchTracer) error {
	var err error
	switch {
	case len(*bp) == 0:
	case p.nshards == 1:
		p.planRun(*bp, bt, time.Time{})
	default:
		req := planReq{events: *bp, owned: bp, bt: bt}
		if bt != nil {
			req.enq = time.Now()
		}
		if err = p.enqueue(req); err == nil {
			return nil // planOne recycles the buffer
		}
	}
	p.batchPool.Put(bp)
	return err
}

// planRun is the plan step over an admitted run, under planMu: the cluster
// decisions, staging, and the flush to the lanes. A traced run records
// plan_wait since waitStart (zero: since this call, the time spent blocked on
// the mutex) and then its plan span.
func (p *Pipeline) planRun(run []model.Event, bt BatchTracer, waitStart time.Time) {
	if bt != nil && waitStart.IsZero() {
		waitStart = time.Now()
	}
	p.planMu.Lock()
	if bt != nil {
		bt.Span("plan_wait", -1, -1, waitStart, time.Since(waitStart))
		p.curBT, p.planSpan = bt, bt.Begin("plan", -1, -1)
	}
	for i := range run {
		p.plan(run[i])
	}
	p.flushLocked()
	if bt != nil {
		p.curBT = nil
		bt.End(p.planSpan)
	}
	p.planMu.Unlock()
}

// plan makes one admitted event's cluster decision, in delivery order
// [decide-in-order], and stages it for its lane. It cannot fail. Called with
// planMu held.
func (p *Pipeline) plan(e model.Event) {
	p.stageItem(e, p.decide(e))
}

// stageItem stages one planned item for its lane, naming its epoch by index:
// the one place an epoch enters the epoch table, published here
// [epoch-before-item].
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
	s := p.smap[e.ID.Process]
	p.curBufs[s] = append(p.curBufs[s], it)
	p.issued[s]++
	if len(p.curBufs[s]) == p.drainAt {
		p.flushLocked()
	}
}

// maxLaneBacklog bounds a lane's queue: the planner flushes a batch only once
// every lane holds fewer than this many flushed-but-unstamped items, so a lane
// queue (and the capacity it keeps) never exceeds maxLaneBacklog plus one
// batch however far the lanes fall behind. Eight 1024-event frames' worth on
// two lanes: deep enough that a lane never idles while the planner plans the
// next batch.
const maxLaneBacklog = 4096

// flushLocked passes the staged items on in planner order (planMu is held):
// at one lane it drains them inline, under the run's plan span; above one it
// appends them to the lanes' queues. It first waits for room (maxLaneBacklog)
// and then flushes the batch whole, never part of it [flush-whole-batches].
func (p *Pipeline) flushLocked() {
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
	if p.nshards == 1 {
		p.lanes[0].drain(p.curBufs[0], p.planSpan)
		p.curBufs[0] = p.curBufs[0][:0]
		return
	}
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
// depth that stays put while events arrive is a stalled lane. Zero on the lone
// lane whenever no dispatch is inside its inline drain.
func (p *Pipeline) LaneQueueDepthsInto(buf []uint64) []uint64 {
	p.doneMu.Lock()
	defer p.doneMu.Unlock()
	for s := range p.done {
		buf = append(buf, p.flushed[s]-p.done[s])
	}
	return buf
}

// StoreStats returns the column store's physical tallies, summed over the
// lanes' drained chunks. Above one lane it can trail dispatched work, like
// Result; it is exact after Barrier, and at one lane when a dispatch returns.
func (p *Pipeline) StoreStats() StoreStats {
	var total StoreStats
	var cells uint64
	p.doneMu.Lock()
	for s, st := range p.laneStats {
		total.add(st)
		cells += p.done[s]
	}
	p.doneMu.Unlock()
	total.CellBytes = cellBytes * int64(cells)
	total.NoteBytes = noteBytes * (total.Keyframes + total.DeltaFrames + total.NibbleFrames)
	total.Epochs = int64(len(*p.epochs.Load()) - 1)
	return total
}

// storeRoom is the admission gate's slow path (Admission.reserve), called
// with the admission lock held: how many more events may be admitted before
// the gate has to ask again, from the offset every lane's arena has published
// and the size of the epoch table [storeRoom-overcounts].
func (p *Pipeline) storeRoom() int64 {
	ends := make([]uint32, p.nshards)
	var stamped uint64
	p.doneMu.Lock()
	copy(ends, p.laneEnds)
	for _, n := range p.done {
		stamped += n
	}
	p.doneMu.Unlock()
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
// admitted from here on, may land on the fullest lane [storeRoom-overcounts].
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
// hold of the planner mutex, the only read of the counters
// [result-one-snapshot]. It reflects planned work, which may be ahead of what is
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
	spare []item // the chunk last claimed, recycled as the next queue
	stop  bool

	// The chunk being drained, its next item, and the span its stamp spans
	// hang under (-1, or the plan span at one lane). xround is the head item's
	// cross-lane sync round, so a resumed step never puts twice: 1 once its
	// base clock is put, 2 once it is stamped and marked.
	chunk  []item
	pos    int
	parent int
	xround uint8

	frontier  []vclock.Clock // per process; only this lane's entries are used
	keys      []projKey      // per process, likewise: its current projection keyframe, anchor and last frame
	free      []vclock.Clock // retired clocks, reused for retained copies
	ar        *arena
	localSend map[model.EventID]vclock.Clock // same-lane in-flight sends
	held      heldSync

	// Batched rendezvous state (see the file comment). pendPuts buffers
	// outbound cross-lane send clocks per stripe; pendN counts them so the
	// empty check is one comparison. Buffered puts are flushed under one
	// stripe-lock acquisition each [flush-before-block]. want is the
	// per-stripe scratch for the chunk prescan; prefetched holds the clocks it
	// claimed, consumed by this chunk's receives.
	pendPuts   [rvStripes][]rvPut
	pendN      int
	want       [rvStripes][]model.EventID
	prefetched map[model.EventID]vclock.Clock

	// curBT/curSpan name the traced run whose items are being processed and
	// its open stamp span, under which rendezvous waits attach. Private to
	// whoever calls the lane's steps (at one lane: under planMu).
	curBT   BatchTracer
	curSpan int

	waits atomic.Int64 // blocking cross-shard waits
}

// run is the lane goroutine above one lane: wait, claim, drain.
func (ln *lane) run() {
	defer ln.pl.wg.Done()
	for ln.await() {
		ln.drain(ln.claim(), -1)
	}
}

// await blocks until the lane has queued work (true) or is stopped with none
// (false).
func (ln *lane) await() bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for len(ln.queue) == 0 && !ln.stop {
		ln.cond.Wait()
	}
	return len(ln.queue) > 0
}

// claim takes everything queued as one chunk, under one lock acquisition. The
// chunk is the caller's until the next claim, which recycles its buffer.
func (ln *lane) claim() []item {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.queue, ln.spare = ln.spare[:0], ln.queue
	return ln.spare
}

// drain stamps a chunk through the lane's steps, waiting out each block: the
// lane goroutine's body above one lane, flushLocked's inline at one lane.
func (ln *lane) drain(chunk []item, parent int) {
	ln.begin(chunk, parent)
	for ln.pos < len(chunk) {
		if k, blocked := ln.step(); blocked {
			ln.noteWait(ln.pl.rv.wait(k))
		}
	}
	ln.end()
}

// begin makes chunk the lane's current one and prefetches its clocks.
func (ln *lane) begin(chunk []item, parent int) {
	ln.chunk, ln.pos, ln.parent = chunk, 0, parent
	ln.prefetchTakes(chunk)
}

// step processes the current chunk's next item, or returns what it is blocked
// on; called again once that is published, it resumes the item. Contiguous
// items of one traced run share one stamp span.
func (ln *lane) step() (rvKey, bool) {
	it := &ln.chunk[ln.pos]
	if it.bt != ln.curBT {
		ln.span(it.bt)
	}
	if k, blocked := ln.process(it); blocked {
		return k, true
	}
	ln.pos++
	return rvKey{}, false
}

// end closes the current chunk: its stamp span, the buffered puts
// [flush-before-block], then the lane's progress and tallies under doneMu.
func (ln *lane) end() {
	ln.span(nil)
	ln.flushPuts()
	pl := ln.pl
	pl.doneMu.Lock()
	pl.done[ln.id] += uint64(len(ln.chunk))
	pl.laneStats[ln.id], pl.laneEnds[ln.id] = ln.ar.stats, ln.ar.end()
	pl.doneCond.Broadcast()
	pl.doneMu.Unlock()
	ln.chunk, ln.pos = nil, 0
}

// span closes the open stamp span and, for a traced run's bt, opens its next.
func (ln *lane) span(bt BatchTracer) {
	if ln.curBT != nil {
		ln.curBT.End(ln.curSpan)
	}
	ln.curBT, ln.curSpan = bt, -1
	if bt != nil {
		ln.curSpan = bt.Begin("stamp", int(ln.id), ln.parent)
	}
}

// prefetchTakes prescans a claimed chunk and claims, per stripe under one
// lock acquisition, every already-published clock its cross-lane receives
// will need. Misses stay in the rendezvous for the step's own tryTake.
// Claiming early cannot starve another lane: each send has exactly one
// receive, the shard map routes it here, and it is in this chunk.
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
			if clk, ok := st.held[rvKey{id: id}]; ok {
				delete(st.held, rvKey{id: id})
				ln.prefetched[id] = clk
			}
		}
		st.mu.Unlock()
		ln.want[s] = ids[:0]
	}
}

// flushPuts publishes the buffered cross-lane send clocks: one stripe-lock
// acquisition and one wakeup per non-empty stripe, however many clocks it
// carries. A lane calls it before it waits [flush-before-block].
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
			st.held[rvKey{id: pu.id}] = pu.clk
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

// block is every blocked return of a step: the lane is about to wait
// [flush-before-block].
func (ln *lane) block(k rvKey) (rvKey, bool) {
	ln.flushPuts()
	return k, true
}

// process stamps one planned item: the Fidge/Mattern clock step (the same
// computation as package fm's ObserveBorrowed, restricted to this lane's
// processes) followed by stamp — or returns what it is blocked on, having
// changed nothing a retry would repeat.
func (ln *lane) process(it *item) (rvKey, bool) {
	e := it.ev
	switch e.Kind {
	case model.Sync:
		return ln.processSync(it)
	case model.Receive:
		// The send's clock first: a receive that waits has not moved its frontier.
		sclk, ok := ln.takeSend(e.Partner)
		if !ok {
			return ln.block(rvKey{id: e.Partner})
		}
		clk := ln.bump(e)
		clk.MaxInto(sclk)
		ln.free = append(ln.free, sclk)
		ln.stamp(e, clk, it.ep)
		return rvKey{}, false
	}
	clk := ln.bump(e)
	ln.stamp(e, clk, it.ep)
	if e.Kind == model.Send {
		// Forward only after publishing the cell and note [put-after-publish].
		ln.forwardSend(e, clk)
	}
	return rvKey{}, false
}

// processSync stamps one half of a synchronous pair. Same-lane pairs
// complete locally (the planner dispatches the halves adjacently);
// cross-lane pairs run the two-round exchange described in the file
// comment, resumable at either round's take.
func (ln *lane) processSync(it *item) (rvKey, bool) {
	e := it.ev
	if ln.pl.smap[e.Partner.Process] == ln.id {
		if ln.held.base == nil {
			ln.held = heldSync{it: *it, base: ln.ownClock(e)}
			return rvKey{}, false
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
		return rvKey{}, false
	}

	// Round 1: exchange base clocks, put before take [waits-point-forward],
	// and stamp the joint clock. max is commutative, so both sides compute
	// the identical vector.
	if ln.xround == 0 {
		ln.pl.rv.put(rvKey{id: e.ID}, ln.ownClock(e))
		ln.xround = 1
	}
	if ln.xround == 1 {
		pclk, ok := ln.pl.rv.tryTake(rvKey{id: e.Partner})
		if !ok {
			return ln.block(rvKey{id: e.Partner})
		}
		joint := ln.bump(e) // frontier now equals our base
		joint.MaxInto(pclk)
		ln.free = append(ln.free, pclk)
		ln.stamp(e, joint, it.ep)
		ln.pl.rv.put(rvKey{id: e.ID, mark: true}, nil)
		ln.xround = 2
	}

	// Round 2: our joint clock counts the partner's own event
	// [put-after-publish].
	if _, ok := ln.pl.rv.tryTake(rvKey{id: e.Partner, mark: true}); !ok {
		return ln.block(rvKey{id: e.Partner, mark: true})
	}
	ln.xround = 0
	return rvKey{}, false
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
// chunk's prefetched claims, then the rendezvous — if it is published. The
// caller owns the result and should recycle it after use.
func (ln *lane) takeSend(sendID model.EventID) (vclock.Clock, bool) {
	if clk, ok := ln.localSend[sendID]; ok {
		delete(ln.localSend, sendID)
		return clk, true
	}
	if clk, ok := ln.prefetched[sendID]; ok {
		delete(ln.prefetched, sendID)
		return clk, true
	}
	return ln.pl.rv.tryTake(rvKey{id: sendID})
}

// stamp converts a finalized clock into the event's stored cell and
// publishes it — the only writer of column cells and cluster-receive notes,
// in the order [dir-before-wm] names. The vector — a frame
// over the process's current keyframe of its kind, projection or cluster
// receive, or a new keyframe (store.go) — is carved from the lane arena: no
// allocation per event. A send or a unary event changes no component but its
// own, which is its index, so under the epoch of the projection just before it
// in its process it carves nothing and its cell names that projection's frame.
// The cell keeps no epoch: a projection's is its keyframe's, which is why a
// frame is shared only under the same one [epoch-in-keyframe]. It cannot
// fail: the admission gate let the event in only with room for it
// [storeRoom-overcounts], and the planner published epoch ep before the item
// reached this lane [epoch-before-item].
func (ln *lane) stamp(e model.Event, clk vclock.Clock, ep uint32) {
	p := e.ID.Process
	k := &ln.keys[p]
	var vec uint32
	if ep == 0 {
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

// rvKey names what the rendezvous holds, and what a blocked lane step waits
// for: the clock published under id, or — a cross-lane sync's second round —
// id's published mark.
type rvKey struct {
	id   model.EventID
	mark bool
}

// rendezvous is the cross-shard meeting point: a striped map from rvKey to a
// finalized clock (sends and sync base clocks) or, for a mark, nil. Striping
// keeps unrelated waits off each other's lock.
type rendezvous struct {
	stripes [rvStripes]rvStripe
}

type rvStripe struct {
	mu   sync.Mutex
	cond sync.Cond
	held map[rvKey]vclock.Clock
}

func (rv *rendezvous) init() {
	for i := range rv.stripes {
		s := &rv.stripes[i]
		s.cond.L = &s.mu
		s.held = make(map[rvKey]vclock.Clock)
	}
}

func stripeIdx(id model.EventID) uint32 {
	h := uint32(id.Process)*0x9E3779B1 ^ uint32(id.Index)*0x85EBCA6B
	return h & (rvStripes - 1)
}

func (rv *rendezvous) stripeFor(id model.EventID) *rvStripe {
	return &rv.stripes[stripeIdx(id)]
}

// put publishes what k names: a clock, whose ownership moves to the taker, or
// a mark (clk nil).
func (rv *rendezvous) put(k rvKey, clk vclock.Clock) {
	s := rv.stripeFor(k.id)
	s.mu.Lock()
	s.held[k] = clk
	s.cond.Broadcast()
	s.mu.Unlock()
}

// tryTake consumes what k names, if it is published.
func (rv *rendezvous) tryTake(k rvKey) (vclock.Clock, bool) {
	s := rv.stripeFor(k.id)
	s.mu.Lock()
	clk, ok := s.held[k]
	delete(s.held, k)
	s.mu.Unlock()
	return clk, ok
}

// wait blocks until what k names is published, and reports how long it
// blocked (zero if it never did): the one place a lane sleeps on a stripe,
// and it returns [waits-point-forward]. It consumes nothing; the resumed step
// takes it.
func (rv *rendezvous) wait(k rvKey) time.Duration {
	s := rv.stripeFor(k.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.held[k]; ok {
		return 0
	}
	start := time.Now()
	for _, ok := s.held[k]; !ok; _, ok = s.held[k] {
		s.cond.Wait()
	}
	return time.Since(start)
}
