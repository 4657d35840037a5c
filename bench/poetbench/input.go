package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

const (
	// sampleSize bounds the events whose Fidge/Mattern clocks the oracle
	// keeps: a full fm.StampAll of a million 300-wide vectors needs over a
	// gigabyte, a 4096-event sample needs 5 MB.
	sampleSize = 4096
	// poolSize is the number of precomputed query pairs over the sample.
	poolSize = 32768
	// maxLag is the largest per-process arrival lag, in events.
	maxLag = 256
	// fixedVector is poetd's -fixed default, the denominator of the
	// paper's timestamp-size ratio.
	fixedVector = metrics.DefaultFixedVector
)

// newConfig is poetd's default clustering (-strategy merge-1st -maxcs 13).
// Deciders are stateful, so every engine gets a fresh one.
func newConfig() hct.Config {
	return hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}
}

// input is everything a pass needs, generated once per run from the seed.
type input struct {
	spec    workloadSpec
	seed    int64
	procs   int
	trace   *model.Trace
	arrival []model.Event   // the order records reach the daemon
	batches [][]model.Event // arrival cut into EVENTS frames

	// delivered[b] is the number of events the collector has delivered once
	// batch b is acknowledged; it is also a WAL run boundary, so it is a
	// valid QUERY@ cutoff.
	delivered []uint64

	// pool holds query pairs over the oracle sample, sorted by ready.
	// ready[i] is the first batch after whose ACK both events of pool[i] are
	// delivered; want[i] is the Fidge/Mattern answer.
	pool  []monitor.Query
	ready []int32
	want  []bool

	anchor    model.EventID // the sample event delivered earliest; probes pair with it
	final     monitor.Query // Precedes(anchor, last record to arrive)
	finalWant bool

	// Single-writer reference accounting after the whole stream.
	refEvents  int
	refStorage int64
	heldMax    int
	runs       int

	genSeconds float64
}

// buildInput generates the trace, its arrival order, the single-writer
// reference and the oracle sample. It is deterministic in (spec, seed, sc).
func buildInput(spec workloadSpec, seed int64, sc scale) (*input, error) {
	start := time.Now()
	spec = spec.at(sc)
	tr := spec.gen(seed, sc)
	in := &input{spec: spec, seed: seed, procs: tr.NumProcs, trace: tr}
	rng := rand.New(rand.NewSource(seed*7919 + 17))

	in.arrival = tr.Events
	if spec.lagged {
		in.arrival = laggedOrder(tr, rng)
	}
	for lo := 0; lo < len(in.arrival); lo += spec.batch {
		hi := min(lo+spec.batch, len(in.arrival))
		in.batches = append(in.batches, in.arrival[lo:hi])
	}

	// Oracle sample: seeded positions plus the last record to arrive, which
	// the recovery probe asks about.
	n := len(in.arrival)
	want := min(sampleSize, n)
	chosen := map[model.EventID]int{in.arrival[n-1].ID: 0}
	sample := []model.EventID{in.arrival[n-1].ID}
	for len(sample) < want {
		id := tr.Events[rng.Intn(n)].ID
		if _, dup := chosen[id]; !dup {
			chosen[id] = len(sample)
			sample = append(sample, id)
		}
	}

	clocks, err := sampleClocks(tr, chosen)
	if err != nil {
		return nil, err
	}
	readyBatch, err := in.reference(chosen)
	if err != nil {
		return nil, err
	}

	in.anchor = sample[0]
	best := readyBatch[0]
	for i, rb := range readyBatch {
		if rb < best {
			best, in.anchor = rb, sample[i]
		}
	}

	type pair struct {
		q     monitor.Query
		ready int32
		want  bool
	}
	mk := func(op monitor.QueryOp, a, b int) pair {
		p := pair{q: monitor.Query{Op: op, A: sample[a], B: sample[b]}, ready: max(readyBatch[a], readyBatch[b])}
		if op == monitor.OpPrecedes {
			p.want = fm.Precedes(sample[a], clocks[a], sample[b], clocks[b])
		} else {
			p.want = fm.Concurrent(sample[a], clocks[a], sample[b], clocks[b])
		}
		return p
	}
	pairs := make([]pair, 0, poolSize)
	for len(pairs) < poolSize && len(sample) > 1 {
		a, b := rng.Intn(len(sample)), rng.Intn(len(sample))
		if a == b {
			continue
		}
		pairs = append(pairs, mk(monitor.QueryOp(len(pairs)%2), a, b))
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].ready < pairs[j].ready })
	for _, p := range pairs {
		in.pool = append(in.pool, p.q)
		in.ready = append(in.ready, p.ready)
		in.want = append(in.want, p.want)
	}
	f := mk(monitor.OpPrecedes, chosen[in.anchor], 0)
	in.final, in.finalWant = f.q, f.want

	in.genSeconds = time.Since(start).Seconds()
	return in, nil
}

// laggedOrder delays every process by its own seeded lag of 0..maxLag events.
// Per-process order is preserved (one lag per process, stable sort), but a
// receive or sync half now often arrives before its partner.
func laggedOrder(tr *model.Trace, rng *rand.Rand) []model.Event {
	lag := make([]int, tr.NumProcs)
	for p := range lag {
		lag[p] = rng.Intn(maxLag + 1)
	}
	type keyed struct {
		key int
		ev  model.Event
	}
	ks := make([]keyed, len(tr.Events))
	for i, e := range tr.Events {
		ks[i] = keyed{i + lag[e.ID.Process], e}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]model.Event, len(ks))
	for i, k := range ks {
		out[i] = k.ev
	}
	return out
}

// sampleClocks streams the trace through the Fidge/Mattern timestamper and
// keeps the clocks of the chosen events only.
func sampleClocks(tr *model.Trace, chosen map[model.EventID]int) ([]vclock.Clock, error) {
	clocks := make([]vclock.Clock, len(chosen))
	ts := fm.NewTimestamper(tr.NumProcs)
	for _, e := range tr.Events {
		out, err := ts.ObserveBorrowed(e)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for _, b := range out {
			if i, ok := chosen[b.Event.ID]; ok {
				clocks[i] = b.Clock.Clone()
			}
		}
	}
	return clocks, ts.Flush()
}

// reference feeds the arrival batches through an in-process single-writer
// monitor and collector. It records the accounting every daemon shape must
// reproduce exactly, the delivered count after each batch, and for each
// chosen event the batch that made it queryable.
func (in *input) reference(chosen map[model.EventID]int) ([]int32, error) {
	m, err := monitor.New(in.procs, newConfig())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	col := monitor.NewCollector(m)

	// Per process, the chosen indices in ascending order.
	type want struct {
		idx    int32
		sample int
	}
	perProc := make([][]want, in.procs)
	for id, i := range chosen {
		perProc[id.Process] = append(perProc[id.Process], want{int32(id.Index), i})
	}
	for _, w := range perProc {
		sort.Slice(w, func(i, j int) bool { return w[i].idx < w[j].idx })
	}
	readyBatch := make([]int32, len(chosen))
	next := make([]int, in.procs)

	in.delivered = make([]uint64, len(in.batches))
	var wm hct.Watermark
	prev := 0
	for b, batch := range in.batches {
		if _, err := col.SubmitBatch(batch); err != nil {
			return nil, fmt.Errorf("reference: batch %d: %w", b, err)
		}
		ev := m.Pipeline().Events()
		in.delivered[b] = uint64(ev)
		if ev > prev {
			in.runs++
			prev = ev
		}
		in.heldMax = max(in.heldMax, col.Held())
		wm = m.Pipeline().CaptureWatermark(wm)
		for p, ws := range perProc {
			for next[p] < len(ws) && ws[next[p]].idx <= wm[p] {
				readyBatch[ws[next[p]].sample] = int32(b)
				next[p]++
			}
		}
	}
	if err := col.Close(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	st := m.Stats(fixedVector)
	in.refEvents, in.refStorage = st.Events, st.StorageInts
	if in.refEvents != len(in.arrival) {
		return nil, fmt.Errorf("reference delivered %d of %d events", in.refEvents, len(in.arrival))
	}
	return readyBatch, nil
}

// eligible returns how many pool pairs are answerable once batch b is
// acknowledged.
func (in *input) eligible(b int) int {
	return sort.Search(len(in.ready), func(i int) bool { return in.ready[i] > int32(b) })
}

// tsSizeRatio is the paper's Section 4 headline metric.
func tsSizeRatio(storage int64, events int) float64 {
	return float64(storage) / (float64(events) * fixedVector)
}
