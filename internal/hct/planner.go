package hct

// This file is the plan queue, the planner goroutine that calls the plan step
// above one lane (pipeline.go's "Steps, and who calls them"), and Barrier.
// PipelineOptions.PlanQueue is the queue's depth in batches (zero or negative:
// DefaultPlanQueue) and selects nothing else.
//
// The queue is a mutex+cond bounded slice, not a channel: barrier markers must
// bypass the depth bound without a second channel, and Close must drain
// deterministically without send-on-closed hazards. The depth bound counts a
// batch from enqueue until the planner finishes planning it, so "queued"
// includes the batch in flight and PlanQueueDepth is an honest backlog gauge.
//
// What the queue carries is already admitted (admit.go), so planning has no
// verdict to send back: the planner asks the core for each event's epoch and
// stages it [decide-in-order], and a batch, once enqueued, is planned.

import (
	"sync"
	"time"

	"repro/internal/model"
)

// DefaultPlanQueue is the plan-queue depth (in batches) when
// PipelineOptions.PlanQueue is zero or negative. Small on purpose: each
// queued batch is copied and held alive, and the queue only needs to be deep
// enough to keep the planner busy while the submitter decodes and journals the
// next batch.
const DefaultPlanQueue = 4

// SizeObserver receives instantaneous plan-queue depths (in batches), one
// observation per batch accepted onto the queue. The telemetry plane installs
// a size histogram here; obs.Histogram implements it.
type SizeObserver interface {
	ObserveValue(v int64)
}

// planReq is one unit of planner work: an admitted batch to plan, or a barrier
// marker.
type planReq struct {
	events []model.Event
	owned  *[]model.Event // events' pooled buffer, recycled into batchPool after planning
	bt     BatchTracer
	enq    time.Time // enqueue time, set when bt != nil (plan_wait span)

	barrier *barrierWait // non-nil: marker; all other fields unused
}

// barrierWait is one Barrier call's horizon: snap is the issued counts the
// lanes must cover. As a marker on the plan queue it is also the rendezvous
// with the planner, which fills snap after planning everything queued before
// the marker and then signals ch.
type barrierWait struct {
	snap []uint64
	ch   chan struct{}
}

// snapshot fills snap with the current issued counts: final for everything
// accepted so far only when the planner has planned it all.
func (bw *barrierWait) snapshot(p *Pipeline) {
	p.planMu.Lock()
	bw.snap = append(bw.snap[:0], p.issued...)
	p.planMu.Unlock()
}

// planQueue is the bounded feed between dispatchers and the planner
// goroutine.
type planQueue struct {
	mu    sync.Mutex
	ready sync.Cond // planner waits here for work
	avail sync.Cond // enqueuers wait here for space

	reqs    []planReq // oldest first
	limit   int
	batches int  // batches enqueued or in planning (markers exempt)
	stop    bool // Close: reject new work, drain the rest
}

func (q *planQueue) init(limit int) {
	q.ready.L = &q.mu
	q.avail.L = &q.mu
	q.limit = limit
	q.reqs = make([]planReq, 0, limit+2)
}

// enqueue pushes one request, waiting for space (barrier markers are exempt
// from the depth bound — a barrier must not deadlock against a full queue).
// A dispatcher waits here holding the admission lock, which the planner never
// takes [lock-order].
func (p *Pipeline) enqueue(req planReq) error {
	q := &p.pq
	q.mu.Lock()
	if req.barrier == nil {
		for !q.stop && q.batches >= q.limit {
			q.avail.Wait()
		}
	}
	if q.stop {
		q.mu.Unlock()
		return ErrPipelineClosed
	}
	q.reqs = append(q.reqs, req)
	depth := -1
	if req.barrier == nil {
		q.batches++
		depth = q.batches
	}
	q.ready.Signal()
	q.mu.Unlock()
	if depth >= 0 {
		p.observeQueueDepth(depth)
	}
	return nil
}

// await blocks until a request is queued (true) or the queue is stopped with
// none (false).
func (q *planQueue) await() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.reqs) == 0 && !q.stop {
		q.ready.Wait()
	}
	return len(q.reqs) > 0
}

// claim takes the oldest queued request, if there is one.
func (q *planQueue) claim() (planReq, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.reqs) == 0 {
		return planReq{}, false
	}
	req := q.reqs[0]
	n := copy(q.reqs, q.reqs[1:])
	q.reqs[n] = planReq{} // drop buffer/tracer references
	q.reqs = q.reqs[:n]
	return req, true
}

// planner is the plan-stage goroutine above one lane: wait, claim, plan. It
// exits only when stopped AND drained, so every
// accepted request is planned and every waiting barrier answered.
func (p *Pipeline) planner() {
	defer p.plannerWG.Done()
	for p.pq.await() {
		req, _ := p.pq.claim()
		p.planOne(&req)
	}
}

// planOne is the plan step over one claimed request: a batch is planned under
// planMu (flushing the staged items to the lanes) and retired from the depth
// bound; a barrier marker is answered with an issued-count snapshot.
func (p *Pipeline) planOne(req *planReq) {
	if bw := req.barrier; bw != nil {
		bw.snapshot(p)
		bw.ch <- struct{}{}
		return
	}
	p.planRun(req.events, req.bt, req.enq)
	p.batchPool.Put(req.owned)
	p.pq.mu.Lock()
	p.pq.batches--
	p.pq.avail.Signal() // one enqueuer may go on
	p.pq.mu.Unlock()
}

// Barrier blocks until every item dispatched before the call — every batch
// DispatchAsync or DispatchAdmitted accepted — has been stamped and published.
// At one lane it is a no-op: a dispatch is synchronous there. Safe for
// concurrent callers.
//
// With the queue empty and the planner idle the issued counts are final (the
// common case on query paths, which barrier per frame); otherwise a marker
// rides the queue FIFO behind the outstanding batches and the planner answers
// it with the counts [barrier-counts-planned]. Either way the lanes are then
// waited on to cover them.
func (p *Pipeline) Barrier() {
	if p.nshards == 1 {
		return
	}
	q := &p.pq
	q.mu.Lock()
	busy := q.batches > 0
	q.mu.Unlock()
	bw, _ := p.bwPool.Get().(*barrierWait)
	if bw == nil {
		bw = &barrierWait{ch: make(chan struct{}, 1)}
	}
	switch {
	case !busy:
		bw.snapshot(p)
	case p.enqueue(planReq{barrier: bw}) == nil:
		<-bw.ch // the planner took the snapshot when it reached the marker
	default:
		// Closed. The planner drains before exiting; wait it out, then the
		// snapshot is exact.
		p.plannerWG.Wait()
		bw.snapshot(p)
	}
	p.doneMu.Lock()
	for !covered(p.done, bw.snap) {
		p.doneCond.Wait()
	}
	p.doneMu.Unlock()
	p.bwPool.Put(bw)
}

// PlannerBusy returns the cumulative time spent planning: planRun's cluster
// decisions and staging, at every lane count, without its flushes to the
// lanes (the wait for lane room, and at one lane the inline drain). Runs of
// one event (Timestamper.Ingest) are not timed.
func (p *Pipeline) PlannerBusy() time.Duration { return time.Duration(p.busy.Load()) }

// PlannerOccupancy returns the fraction of wall time since construction spent
// planning, as PlannerBusy counts it — the saturation gauge for the plan
// stage.
func (p *Pipeline) PlannerOccupancy() float64 {
	wall := time.Since(p.since)
	if wall <= 0 {
		return 0
	}
	occ := float64(p.busy.Load()) / float64(wall)
	if occ > 1 {
		occ = 1
	}
	return occ
}

// PlanQueueDepth returns the number of batches accepted but not yet planned
// (the one in planning included). Zero at one lane, where nothing is queued.
func (p *Pipeline) PlanQueueDepth() int {
	p.pq.mu.Lock()
	defer p.pq.mu.Unlock()
	return p.pq.batches
}

// SetPlanQueueObserver installs the observer for plan-queue depths.
func (p *Pipeline) SetPlanQueueObserver(o SizeObserver) {
	if o == nil {
		p.pqo.Store(nil)
		return
	}
	p.pqo.Store(&o)
}

func (p *Pipeline) observeQueueDepth(depth int) {
	if op := p.pqo.Load(); op != nil {
		(*op).ObserveValue(int64(depth))
	}
}
