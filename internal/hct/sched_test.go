package hct

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// sched drives the steps of a built, unstarted pipeline from one goroutine:
// the production loops (lane.run, Pipeline.planner, a dispatcher) with every
// wait replaced by a seeded choice among the steps that can run.
type sched struct {
	p       *Pipeline
	seed    int64
	r       *rand.Rand
	batches [][]model.Event // still to dispatch, in delivery order
	blocked []*rvKey        // per lane: what its last step returned blocked on
	steps   []byte          // the steps taken: 'd' dispatch, 'p' plan, '0'+lane
}

// A step the scheduler may take: dispatch the next batch, plan the oldest
// queued request, or move lane k (begin a chunk, step an item, end the chunk).
const (
	stepDispatch = -2
	stepPlan     = -1
)

func newSched(t *testing.T, tr *model.Trace, cfg Config, lanes int, seed int64) *sched {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p, err := newPipeline(tr.NumProcs, cfg, PipelineOptions{Shards: lanes, PlanQueue: 1 + r.Intn(4)})
	if err != nil {
		t.Fatal(err)
	}
	s := &sched{p: p, seed: seed, r: r, blocked: make([]*rvKey, len(p.lanes))}
	for lo := 0; lo < len(tr.Events); {
		hi := min(lo+1+r.Intn(48), len(tr.Events))
		s.batches = append(s.batches, tr.Events[lo:hi])
		lo = hi
	}
	return s
}

// runnable appends the steps that would not wait.
func (s *sched) runnable(buf []int) []int {
	p := s.p
	if len(s.batches) > 0 && p.pq.batches < p.pq.limit {
		buf = append(buf, stepDispatch)
	}
	if len(p.pq.reqs) > 0 && s.lanesHaveRoom() {
		buf = append(buf, stepPlan)
	}
	for k, ln := range p.lanes {
		switch {
		case ln.chunk == nil && len(ln.queue) == 0:
		case ln.chunk != nil && ln.pos < len(ln.chunk) && s.blocked[k] != nil && !p.rv.published(*s.blocked[k]):
		default:
			buf = append(buf, k)
		}
	}
	return buf
}

// lanesHaveRoom is when flushLocked cannot wait, whatever the plan stages.
func (s *sched) lanesHaveRoom() bool {
	for k := range s.p.lanes {
		if s.p.flushed[k]-s.p.done[k] >= maxLaneBacklog {
			return false
		}
	}
	return true
}

func (s *sched) take(step int) error {
	p := s.p
	switch step {
	case stepDispatch:
		s.steps = append(s.steps, 'd')
		b := s.batches[0]
		s.batches = s.batches[1:]
		return p.DispatchAsync(b, nil)
	case stepPlan:
		s.steps = append(s.steps, 'p')
		req, _ := p.pq.claim()
		p.planOne(&req)
		return nil
	}
	s.steps = append(s.steps, byte('0'+step))
	ln := p.lanes[step]
	switch {
	case ln.chunk == nil:
		ln.begin(ln.claim(), -1)
	case ln.pos == len(ln.chunk):
		ln.end()
	default:
		s.blocked[step] = nil
		if k, blocked := ln.step(); blocked {
			s.blocked[step] = &k
		}
	}
	return nil
}

// run takes steps until none can run, and fails if work is then still
// pending: a deadlock, reported with its seed and the steps that led to it.
func (s *sched) run(t *testing.T, where string) {
	t.Helper()
	var buf []int
	for {
		buf = s.runnable(buf[:0])
		if len(buf) == 0 {
			break
		}
		if err := s.take(buf[s.r.Intn(len(buf))]); err != nil {
			t.Fatalf("%s seed=%d: %v", where, s.seed, err)
		}
	}
	if pending := len(s.batches) + len(s.p.pq.reqs); pending > 0 || !covered(s.p.done, s.p.issued) {
		tail := s.steps[max(0, len(s.steps)-400):]
		t.Fatalf("%s seed=%d: no step can run with %d batches and %v of %v items pending after %d steps (last %d: %s); blocked on %v",
			where, s.seed, pending, s.p.done, s.p.issued, len(s.steps), len(tail), tail, s.blockedOn())
	}
}

func (s *sched) blockedOn() []string {
	var out []string
	for k, b := range s.blocked {
		if b != nil {
			out = append(out, fmt.Sprintf("lane %d on %+v", k, *b))
		}
	}
	return out
}

// published reports, without consuming it, whether what k names is in the
// rendezvous: the condition rendezvous.wait waits for.
func (rv *rendezvous) published(k rvKey) bool {
	st := rv.stripeFor(k.id)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.held[k]
	return ok
}

// schedAgainst runs one seeded schedule of tr at the given lane count and
// holds its accounting and every timestamp to the one-lane reference.
func schedAgainst(t *testing.T, tr *model.Trace, ref *Timestamper, cfg Config, lanes int, seed int64) {
	t.Helper()
	where := fmt.Sprintf("%s lanes=%d", tr.Name, lanes)
	s := newSched(t, tr, cfg, lanes, seed)
	s.run(t, where)
	if got, want := s.p.Result(), ref.Result(); got != want {
		t.Fatalf("%s seed=%d: accounting %+v != reference %+v", where, seed, got, want)
	}
	for _, e := range tr.Events {
		want, _ := ref.Timestamp(e.ID)
		if got, ok := s.p.Timestamp(e.ID); !ok || !sameTimestamp(got, want) {
			t.Fatalf("%s seed=%d: Timestamp(%v) = %v, one-lane %v", where, seed, e.ID, got, want)
		}
	}
}

// TestSeededSchedules drives the pipeline's own steps — dispatch, plan, and
// each lane's begin, item step and end — from one goroutine in seeded random
// orders at 2, 3 and 4 lanes, over the differential corpus (every fifth
// computation under -short) and FuzzPipelineDifferential's seeds. Every
// schedule must stamp byte-identically to the one-lane reference, and a
// schedule in which no step can run while work is pending fails with its
// seed.
func TestSeededSchedules(t *testing.T) {
	lanes := []int{2, 3, 4}
	t.Run("fuzz-seeds", func(t *testing.T) {
		t.Parallel()
		for i, sd := range fuzzPipelineSeeds {
			tr, procs := fuzzTrace(sd.shape, sd.ops)
			maxCS := 1 + int(sd.shape>>3)%4
			ref, err := NewTimestamper(procs, pipelineConfig(t, tr, int(sd.shape), maxCS))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.ObserveAll(tr); err != nil {
				t.Fatal(err)
			}
			for _, n := range lanes {
				for seed := int64(0); seed < 64; seed++ {
					schedAgainst(t, tr, ref, pipelineConfig(t, tr, int(sd.shape), maxCS), min(n, procs), int64(i)<<16|int64(n)<<8|seed)
				}
			}
		}
	})
	for i, spec := range workload.Corpus() {
		if testing.Short() && i%5 != 0 {
			continue
		}
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
			for _, n := range lanes {
				schedAgainst(t, tr, ref, pipelineConfig(t, tr, i, 13), n, int64(i)<<8|int64(n))
			}
		})
	}
}
