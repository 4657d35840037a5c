package hct

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// feedAgainst builds a pipeline of the given options, feeds it tr through
// DispatchAsync in batches of the given size, barriers, and holds its
// accounting and every timestamp — cluster epoch, projection, retained vector
// — to the one-lane reference. It returns the closed pipeline: its query
// surface and planner gauges stay readable.
func feedAgainst(t *testing.T, tr *model.Trace, ref *Timestamper, cfg Config, opt PipelineOptions, batch int) *Pipeline {
	t.Helper()
	where := fmt.Sprintf("maxCS=%d lanes=%d depth=%d", cfg.MaxClusterSize, opt.Shards, opt.PlanQueue)
	pipe, err := NewPipeline(tr.NumProcs, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for lo := 0; lo < len(tr.Events); lo += batch {
		if err := pipe.DispatchAsync(tr.Events[lo:min(lo+batch, len(tr.Events))], nil); err != nil {
			t.Fatalf("%s: DispatchAsync: %v", where, err)
		}
	}
	pipe.Barrier()
	if got, want := pipe.Result(), ref.Result(); got != want {
		t.Fatalf("%s: accounting %+v != reference %+v", where, got, want)
	}
	for _, e := range tr.Events {
		want, _ := ref.Timestamp(e.ID)
		got, ok := pipe.Timestamp(e.ID)
		if !ok || !sameTimestamp(got, want) {
			t.Fatalf("%s: Timestamp(%v) = %v, one-lane %v", where, e.ID, got, want)
		}
	}
	return pipe
}

// TestPlanModesDifferential pins the two shapes to one answer: at every lane
// count and plan-queue depth, DispatchAsync + Barrier must produce timestamps
// byte-identical to the one-lane pipeline (the Timestamper façade), including
// the accounting. PlanQueue is a depth and nothing else: the first cell crosses
// it with the lane count the way the old plan modes did and finds the shape of
// the lane count.
func TestPlanModesDifferential(t *testing.T) {
	specs := workload.Corpus()
	reference := func(t *testing.T, tr *model.Trace, i int) *Timestamper {
		ref, err := NewTimestamper(tr.NumProcs, pipelineConfig(t, tr, i, 13))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ObserveAll(tr); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	t.Run("crossed-options", func(t *testing.T) {
		tr := specs[0].Generate()
		ref := reference(t, tr, 0)

		before := runtime.NumGoroutine()
		one := feedAgainst(t, tr, ref, pipelineConfig(t, tr, 0, 13), PipelineOptions{Shards: 1, PlanQueue: 4}, 97)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("one lane with PlanQueue 4 started %d goroutines", n-before)
		}
		if one.PlanQueueDepth() != 0 {
			t.Fatalf("one lane with PlanQueue 4: %d batches queued", one.PlanQueueDepth())
		}
		if one.PlannerBusy() <= 0 {
			t.Fatal("one lane: the inline plan step counted no planning time")
		}
		if n := len(one.curBufs[0]); n != 0 || cap(one.curBufs[0]) != inlineChunk {
			t.Fatalf("one lane left %d items staged after the dispatches returned, in a buffer of %d", n, cap(one.curBufs[0]))
		}

		before = runtime.NumGoroutine()
		two, err := NewPipeline(tr.NumProcs, pipelineConfig(t, tr, 0, 13), PipelineOptions{Shards: 2, PlanQueue: -1})
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != before+3 {
			t.Fatalf("two lanes with PlanQueue -1 started %d goroutines, want two lanes and the planner", n-before)
		}
		two.Close()
		two = feedAgainst(t, tr, ref, pipelineConfig(t, tr, 0, 13), PipelineOptions{Shards: 2, PlanQueue: -1}, 97)
		if two.PlannerBusy() <= 0 {
			t.Fatal("two lanes with PlanQueue -1: no planning time counted")
		}
	})
	for i, spec := range specs {
		if i%4 != 0 { // the full corpus runs in TestShardedPipelineDifferentialCorpus
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			ref := reference(t, tr, i)
			for _, lanes := range []int{1, 2, 4} {
				for _, depth := range []int{1, 0, 8} {
					if lanes == 1 && depth == 0 {
						continue // the reference's own options
					}
					// Modest batches, so that the plan queue actually cycles.
					feedAgainst(t, tr, ref, pipelineConfig(t, tr, i, 13), PipelineOptions{Shards: lanes, PlanQueue: depth}, 97)
				}
			}
		})
	}
}

// gateTracer blocks the planner inside Begin("plan") until released,
// letting tests hold a batch at a precise pipeline stage.
type gateTracer struct {
	gate    chan struct{} // closed to release
	entered chan struct{} // signalled once when the planner reaches Begin
	once    sync.Once
}

func (g *gateTracer) Begin(name string, lane, parent int) int {
	if name == "plan" {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return 0
}
func (g *gateTracer) End(int)                                             {}
func (g *gateTracer) Span(string, int, int, time.Time, time.Duration) int { return 0 }

// TestAsyncPlannerBarrierOrdering is the acknowledged⇒queryable bar above one
// lane: once Barrier returns for a batch, its timestamps stay
// queryable no matter how much later work sits unplanned on the queue — and
// the queued batches become visible only after the planner drains them.
func TestAsyncPlannerBarrierOrdering(t *testing.T) {
	pipe, err := NewPipeline(8, Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()},
		PipelineOptions{Shards: 2, PlanQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	batch := func(idx int) []model.Event {
		evs := make([]model.Event, 8)
		for p := range evs {
			evs[p] = model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(idx)}, Kind: model.Unary}
		}
		return evs
	}

	// Batch A: dispatched, barriered — acknowledged and queryable.
	if err := pipe.DispatchAsync(batch(1), nil); err != nil {
		t.Fatal(err)
	}
	pipe.Barrier()
	for p := 0; p < 8; p++ {
		if _, ok := pipe.Timestamp(model.EventID{Process: model.ProcessID(p), Index: 1}); !ok {
			t.Fatalf("batch A event p%d missing after Barrier", p)
		}
	}

	// Batch B stalls the planner at the plan span; batch C queues behind it.
	g := &gateTracer{gate: make(chan struct{}), entered: make(chan struct{})}
	if err := pipe.DispatchAsync(batch(2), g); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	if err := pipe.DispatchAsync(batch(3), nil); err != nil {
		t.Fatal(err)
	}

	// A is still fully queryable while B and C sit unplanned.
	for p := 0; p < 8; p++ {
		if _, ok := pipe.Timestamp(model.EventID{Process: model.ProcessID(p), Index: 1}); !ok {
			t.Fatalf("batch A event p%d lost while queue backed up", p)
		}
	}
	if _, ok := pipe.Timestamp(model.EventID{Process: 0, Index: 2}); ok {
		t.Fatal("stalled batch B already queryable")
	}
	if _, ok := pipe.Timestamp(model.EventID{Process: 0, Index: 3}); ok {
		t.Fatal("queued batch C already queryable")
	}
	if d := pipe.PlanQueueDepth(); d < 2 {
		t.Fatalf("PlanQueueDepth = %d with two batches outstanding", d)
	}

	// Release; Barrier must now cover B and C.
	close(g.gate)
	pipe.Barrier()
	for p := 0; p < 8; p++ {
		for idx := 2; idx <= 3; idx++ {
			if _, ok := pipe.Timestamp(model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(idx)}); !ok {
				t.Fatalf("batch event p%d idx%d missing after release + Barrier", p, idx)
			}
		}
	}
	if pipe.Events() != 24 {
		t.Fatalf("Events() = %d, want 24", pipe.Events())
	}
	if pipe.PlannerBusy() <= 0 {
		t.Fatal("PlannerBusy() not accounted")
	}
	if occ := pipe.PlannerOccupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("PlannerOccupancy() = %v, want (0, 1]", occ)
	}
}

// TestPlanBufferCapacityRetention pins the stage()-regrowth fix: the buffers
// between admission and the lanes — the per-shard staging buffers and the
// pooled batch the plan queue carries — must stop growing once warm:
// steady-state dispatches reuse capacity instead of reallocating.
func TestPlanBufferCapacityRetention(t *testing.T) {
	const procs, rounds, perBatch = 16, 8, 64
	pipe, err := NewPipeline(procs, Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()},
		PipelineOptions{Shards: 4, PlanQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	batch := func(idx int) []model.Event {
		evs := make([]model.Event, 0, procs*perBatch)
		for k := 0; k < perBatch; k++ {
			for p := 0; p < procs; p++ {
				evs = append(evs, model.Event{
					ID:   model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(idx*perBatch + k + 1)},
					Kind: model.Unary,
				})
			}
		}
		return evs
	}
	// pooled is the capacity of the one batch buffer in circulation: each
	// dispatch is barriered, so the pool holds it between rounds. (A GC
	// may empty a sync.Pool; zero then means "not observable this round".)
	pooled := func() int {
		bp, _ := pipe.batchPool.Get().(*[]model.Event)
		if bp == nil {
			return 0
		}
		defer pipe.batchPool.Put(bp)
		return cap(*bp)
	}

	if err := pipe.DispatchAsync(batch(0), nil); err != nil {
		t.Fatal(err)
	}
	pipe.Barrier()
	warmCur := make([]int, len(pipe.curBufs))
	for i := range pipe.curBufs {
		warmCur[i] = cap(pipe.curBufs[i])
	}
	warmPool := pooled()

	for r := 1; r < rounds; r++ {
		if err := pipe.DispatchAsync(batch(r), nil); err != nil {
			t.Fatal(err)
		}
		pipe.Barrier()
		for i := range pipe.curBufs {
			if got := cap(pipe.curBufs[i]); got != warmCur[i] {
				t.Fatalf("round %d: curBufs[%d] regrown %d -> %d", r, i, warmCur[i], got)
			}
		}
		if got := pooled(); got != 0 && warmPool != 0 && got != warmPool {
			t.Fatalf("round %d: pooled batch regrown %d -> %d", r, warmPool, got)
		}
	}
}

// TestAsyncPipelineCloseDrains pins the shutdown order: batches accepted
// before Close are fully planned and stamped; dispatches after Close fail
// with the sentinel; Barrier after Close does not hang.
func TestAsyncPipelineCloseDrains(t *testing.T) {
	pipe, err := NewPipeline(8, Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()},
		PipelineOptions{Shards: 2, PlanQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]model.Event, 8)
	for p := range evs {
		evs[p] = model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: 1}, Kind: model.Unary}
	}
	if err := pipe.DispatchAsync(evs, nil); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	if pipe.Events() != 8 {
		t.Fatalf("Events() = %d after Close, accepted batch not drained", pipe.Events())
	}
	if err := pipe.DispatchAsync(evs, nil); err != ErrPipelineClosed {
		t.Fatalf("DispatchAsync after Close = %v, want ErrPipelineClosed", err)
	}
	if err := pipe.dispatchOne(evs[0]); err != ErrPipelineClosed {
		t.Fatalf("dispatchOne after Close = %v, want ErrPipelineClosed", err)
	}
	pipe.Barrier() // must not hang
	for p := 0; p < 8; p++ {
		if _, ok := pipe.Timestamp(model.EventID{Process: model.ProcessID(p), Index: 1}); !ok {
			t.Fatalf("pre-Close event p%d missing", p)
		}
	}
}

// slowStampTracer sleeps in every stamp span it opens: stamping that takes
// d, inside the flush at one lane.
type slowStampTracer struct{ d time.Duration }

func (s slowStampTracer) Begin(name string, _, _ int) int {
	if name == "stamp" {
		time.Sleep(s.d)
	}
	return 0
}
func (slowStampTracer) End(int)                                             {}
func (slowStampTracer) Span(string, int, int, time.Time, time.Duration) int { return 0 }

// TestPlannerBusyCountsPlanningOnly: PlannerBusy is the plan step's own time
// at every lane count — the cluster decisions, not the flush to the lanes. At
// one lane the flush stamps inline, here for at least the tracer's sleep. At
// two lanes the first batch fills each lane's backlog (maxLaneBacklog) and
// its lane sleeps in the stamp span, so the second batch's flush waits for
// lane room about as long. Neither may be counted; the planning takes far
// less.
func TestPlannerBusyCountsPlanningOnly(t *testing.T) {
	const stall = 200 * time.Millisecond
	for _, c := range []struct{ lanes, first int }{{1, 8}, {2, 2 * maxLaneBacklog}} {
		t.Run(fmt.Sprintf("lanes=%d", c.lanes), func(t *testing.T) {
			pipe, err := NewPipeline(8, Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}, PipelineOptions{Shards: c.lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			evs := make([]model.Event, 0, c.first+8)
			for i := 1; len(evs) < c.first+8; i++ {
				for p := 0; p < 8; p++ {
					evs = append(evs, model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary})
				}
			}
			start := time.Now()
			if err := pipe.DispatchAsync(evs[:c.first], slowStampTracer{stall}); err != nil {
				t.Fatal(err)
			}
			if err := pipe.DispatchAsync(evs[c.first:], nil); err != nil {
				t.Fatal(err)
			}
			pipe.Barrier()
			wall := time.Since(start)
			if busy := pipe.PlannerBusy(); busy <= 0 || busy >= stall/2 {
				t.Fatalf("PlannerBusy = %v for %d events stamped in %v, %v of it stalled; it counts planning only", busy, len(evs), wall, stall)
			}
		})
	}
}
