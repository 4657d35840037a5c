package hct

// This file is the planner goroutine: above one lane it takes the plan work
// (the cluster decisions) off the dispatching goroutine; at one lane none of it
// runs. See the "Two shapes" and "Barrier" sections of pipeline.go's file
// comment for the protocol; PipelineOptions.PlanQueue is the queue's depth in
// batches (zero or negative: DefaultPlanQueue) and selects nothing else.
//
// The queue is a mutex+cond bounded slice, drained by the planner goroutine
// in chunks (double-buffered like the lanes' queues), not a channel: the
// planner claims everything queued under one lock acquisition, barrier
// markers must bypass the depth bound without a second channel, and Close
// must drain deterministically without send-on-closed hazards. The depth
// bound counts a batch from enqueue until the planner finishes planning it,
// so "queued" includes the batch in flight and PlanQueueDepth is an honest
// backlog gauge.
//
// What the queue carries is already admitted (admit.go), so planning has no
// verdict to send back: the planner asks the core for each event's epoch and
// stages it, and a batch, once enqueued, is planned.

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

	reqs    []planReq
	spare   []planReq // recycled chunk buffer (planner-private between claims)
	limit   int
	batches int  // batches enqueued or in planning (markers exempt)
	stop    bool // Close: reject new work, drain the rest
}

func (q *planQueue) init(limit int) {
	q.ready.L = &q.mu
	q.avail.L = &q.mu
	q.limit = limit
	q.reqs = make([]planReq, 0, limit+2)
	q.spare = make([]planReq, 0, limit+2)
}

// enqueue pushes one request, waiting for space (barrier markers are exempt
// from the depth bound — a barrier must not deadlock against a full queue).
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

// finishBatch retires one batch from the depth bound and wakes one waiting
// enqueuer.
func (p *Pipeline) finishBatch() {
	q := &p.pq
	q.mu.Lock()
	q.batches--
	q.avail.Signal()
	q.mu.Unlock()
}

// planner is the dedicated plan-stage goroutine: it claims everything queued
// under one lock acquisition, plans each batch under planMu (flushing the
// staged items to the lanes), and answers barrier markers with an
// issued-count snapshot. It exits only when stopped AND drained, so every
// accepted request is planned and every waiting barrier answered.
func (p *Pipeline) planner() {
	defer p.plannerWG.Done()
	q := &p.pq
	for {
		q.mu.Lock()
		for len(q.reqs) == 0 && !q.stop {
			q.ready.Wait()
		}
		if len(q.reqs) == 0 {
			q.mu.Unlock()
			return
		}
		claimed := q.reqs
		q.reqs = q.spare[:0]
		q.mu.Unlock()
		start := time.Now()
		for i := range claimed {
			p.planOne(&claimed[i])
			if claimed[i].barrier == nil {
				p.finishBatch()
			}
			claimed[i] = planReq{} // drop buffer/tracer references
		}
		p.busy.Add(int64(time.Since(start)))
		q.spare = claimed[:0]
	}
}

// planOne executes one queued request on the planner goroutine.
func (p *Pipeline) planOne(req *planReq) {
	if bw := req.barrier; bw != nil {
		bw.snapshot(p)
		bw.ch <- struct{}{}
		return
	}
	p.planRun(req.events, req.bt, req.enq)
	p.batchPool.Put(req.owned)
}

// Barrier blocks until every item dispatched before the call — every batch
// DispatchAsync or DispatchAdmitted accepted — has been stamped and published.
// At one lane it is a no-op: a dispatch is synchronous there. Safe for
// concurrent callers.
//
// Fast path: with the queue empty and the planner idle, everything accepted is
// already planned, so the issued counts are final (the common case on query
// paths, which barrier per frame). Otherwise a marker rides the queue FIFO
// behind the outstanding batches and the planner's snapshot counts exactly the
// items planned before this call's horizon. Either way the lanes are then
// waited on to cover it.
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

// PlannerBusy returns the cumulative time the planner goroutine has spent
// planning (zero at one lane, which has none).
func (p *Pipeline) PlannerBusy() time.Duration { return time.Duration(p.busy.Load()) }

// PlannerOccupancy returns the fraction of wall time since construction the
// planner goroutine spent planning — the saturation gauge for the plan
// stage. Zero at one lane.
func (p *Pipeline) PlannerOccupancy() float64 {
	wall := time.Since(p.start)
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
