package hct

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestPlanModesDifferential pins the plan-stage placement as a pure
// performance knob: for every plan mode (inline, pipelined at several queue
// depths) and shard count, DispatchAsync + Barrier must produce timestamps
// byte-identical to the inline one-lane pipeline (the Timestamper façade),
// including the accounting.
func TestPlanModesDifferential(t *testing.T) {
	specs := workload.Corpus()
	planModes := []int{-1, 1, 8}
	shardCounts := []int{1, 4}
	for i, spec := range specs {
		if i%4 != 0 { // the full corpus runs in TestShardedPipelineDifferentialCorpus
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			ref, err := NewTimestamper(tr.NumProcs, pipelineConfig(t, tr, i, 13))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.ObserveAll(tr); err != nil {
				t.Fatal(err)
			}
			for _, pq := range planModes {
				for _, shards := range shardCounts {
					if pq < 0 && shards == 1 {
						continue // the reference's own shape
					}
					pipe, err := NewPipeline(tr.NumProcs, pipelineConfig(t, tr, i, 13),
						PipelineOptions{Shards: shards, PlanQueue: pq})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := pipe.PlannerPipelined(), pq > 0; got != want {
						pipe.Close()
						t.Fatalf("plan=%d shards=%d: PlannerPipelined() = %v, want %v", pq, shards, got, want)
					}
					// Feed through the async entry point in modest batches so
					// the plan queue actually cycles.
					events := tr.Events
					for len(events) > 0 {
						n := 97
						if n > len(events) {
							n = len(events)
						}
						if err := pipe.DispatchAsync(events[:n], nil); err != nil {
							pipe.Close()
							t.Fatalf("plan=%d shards=%d: DispatchAsync: %v", pq, shards, err)
						}
						events = events[n:]
					}
					pipe.Barrier()
					if pipe.Events() != ref.Events() || pipe.Merges() != ref.Merges() ||
						pipe.ClusterReceives() != ref.ClusterReceives() {
						pipe.Close()
						t.Fatalf("plan=%d shards=%d: accounting (%d,%d,%d) != reference (%d,%d,%d)",
							pq, shards, pipe.Events(), pipe.ClusterReceives(), pipe.Merges(),
							ref.Events(), ref.ClusterReceives(), ref.Merges())
					}
					for _, e := range tr.Events {
						want, _ := ref.Timestamp(e.ID)
						got, ok := pipe.Timestamp(e.ID)
						if !ok || !sameTimestamp(got, want) {
							pipe.Close()
							t.Fatalf("plan=%d shards=%d: Timestamp(%v) = %v, one-lane %v",
								pq, shards, e.ID, got, want)
						}
					}
					pipe.Close()
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

// TestAsyncPlannerBarrierOrdering is the acknowledged⇒queryable bar for the
// pipelined planner: once Barrier returns for a batch, its timestamps stay
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
// between admission and the lanes — the per-shard staging buffers, and with
// the pipelined planner the pooled batch the plan queue carries — must stop
// growing once warm: steady-state dispatches reuse capacity instead of
// reallocating.
func TestPlanBufferCapacityRetention(t *testing.T) {
	const procs, rounds, perBatch = 16, 8, 64
	for _, pq := range []int{-1, 1} {
		pipe, err := NewPipeline(procs, Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()},
			PipelineOptions{Shards: 4, PlanQueue: pq})
		if err != nil {
			t.Fatal(err)
		}

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

		if err := pipe.Dispatch(batch(0)); err != nil {
			t.Fatal(err)
		}
		pipe.Barrier()
		warmCur := make([]int, len(pipe.curBufs))
		for i := range pipe.curBufs {
			warmCur[i] = cap(pipe.curBufs[i])
		}
		warmPool := pooled()
		if pq < 0 && warmPool != 0 {
			t.Fatalf("plan=%d: inline dispatch put a %d-event buffer between admission and the planner", pq, warmPool)
		}

		for r := 1; r < rounds; r++ {
			if err := pipe.Dispatch(batch(r)); err != nil {
				t.Fatal(err)
			}
			pipe.Barrier()
			for i := range pipe.curBufs {
				if got := cap(pipe.curBufs[i]); got != warmCur[i] {
					t.Fatalf("plan=%d round %d: curBufs[%d] regrown %d -> %d", pq, r, i, warmCur[i], got)
				}
			}
			if got := pooled(); got != 0 && warmPool != 0 && got != warmPool {
				t.Fatalf("plan=%d round %d: pooled batch regrown %d -> %d", pq, r, warmPool, got)
			}
		}
		pipe.Close()
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
	if err := pipe.DispatchOne(evs[0]); err != ErrPipelineClosed {
		t.Fatalf("DispatchOne after Close = %v, want ErrPipelineClosed", err)
	}
	pipe.Barrier() // must not hang
	for p := 0; p < 8; p++ {
		if _, ok := pipe.Timestamp(model.EventID{Process: model.ProcessID(p), Index: 1}); !ok {
			t.Fatalf("pre-Close event p%d missing", p)
		}
	}
}
