package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
)

func TestTraceSpanTreeSelfTimes(t *testing.T) {
	// Backdate the trace start so the measured root duration exceeds the
	// synthetic span sum — Finish measures wall time from t0.
	t0 := time.Now().Add(-200 * time.Millisecond)
	tr := NewTrace(OpIngest, "blue", 100, t0)
	// Record a synthetic pipeline: decode [0,10ms), validate [10,30ms),
	// plan [30,80ms) with a nested stamp [40,70ms), and a lane span
	// [30,90ms) with an xwait child [50,60ms).
	tr.Span("decode", -1, -1, t0, 10*time.Millisecond)
	tr.Span("validate", -1, -1, t0.Add(10*time.Millisecond), 20*time.Millisecond)
	plan := tr.Span("plan", -1, -1, t0.Add(30*time.Millisecond), 50*time.Millisecond)
	tr.Span("stamp", 0, plan, t0.Add(40*time.Millisecond), 30*time.Millisecond)
	lane := tr.Span("stamp", 1, -1, t0.Add(30*time.Millisecond), 60*time.Millisecond)
	tr.Span("xwait", 1, lane, t0.Add(50*time.Millisecond), 10*time.Millisecond)
	tr.Finish(nil)

	snap := tr.Snapshot()
	if snap.ID == 0 || snap.Tenant != "blue" || snap.Kind != OpIngest || snap.Size != 100 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("top-level spans = %d, want 4 (decode validate plan stamp)", len(snap.Spans))
	}
	byName := map[string]*SpanNode{}
	for _, n := range snap.Spans {
		byName[fmt.Sprintf("%s/l%d", n.Name, n.Lane)] = n
	}
	p := byName["plan/l-1"]
	if p == nil || len(p.Children) != 1 || p.Children[0].Name != "stamp" {
		t.Fatalf("plan node = %+v", p)
	}
	// Self = own duration minus children: plan 50ms − stamp 30ms = 20ms.
	if p.Self != 20*time.Millisecond {
		t.Fatalf("plan self = %v, want 20ms", p.Self)
	}
	l := byName["stamp/l1"]
	if l == nil || len(l.Children) != 1 || l.Self != 50*time.Millisecond {
		t.Fatalf("lane stamp node = %+v", l)
	}
	// Root self + Σ top-level durations = root duration.
	var sum time.Duration
	for _, n := range snap.Spans {
		sum += n.Dur
	}
	if got := snap.Self + sum; got != snap.Duration {
		t.Fatalf("self (%v) + span durations (%v) = %v, want root duration %v",
			snap.Self, sum, got, snap.Duration)
	}
}

func TestTraceSelfClampedToZero(t *testing.T) {
	// Lanes overlap, so span durations can exceed the root duration; self
	// times must clamp at zero rather than go negative.
	t0 := time.Now().Add(-time.Millisecond)
	tr := NewTrace(OpIngest, "a", 1, t0)
	tr.Span("stamp", 0, -1, t0, 40*time.Millisecond)
	tr.Span("stamp", 1, -1, t0, 40*time.Millisecond)
	parent := tr.Span("plan", -1, -1, t0, time.Millisecond)
	tr.Span("stamp", 2, parent, t0, 5*time.Millisecond)
	tr.Finish(nil)
	snap := tr.Snapshot()
	if snap.Self != 0 {
		t.Fatalf("root self = %v, want clamp to 0", snap.Self)
	}
	for _, n := range snap.Spans {
		if n.Self < 0 {
			t.Fatalf("span %q self = %v, want >= 0", n.Name, n.Self)
		}
	}
}

func TestTraceBeginEndOpenSpans(t *testing.T) {
	tr := NewTrace(OpIngest, "a", 1, time.Now())
	idx := tr.Begin("validate", -1, -1)
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Dur != -1 {
		t.Fatalf("open span = %+v, want dur -1", snap.Spans)
	}
	tr.End(idx)
	snap = tr.Snapshot()
	if snap.Spans[0].Dur < 0 {
		t.Fatalf("ended span dur = %v, want >= 0", snap.Spans[0].Dur)
	}
	tr.End(999) // out of range: ignored
}

func TestTraceFinishIdempotentAndErr(t *testing.T) {
	tr := NewTrace(OpIngest, "a", 1, time.Now().Add(-time.Second))
	tr.Finish(errors.New("boom"))
	d := tr.Duration()
	if d < time.Second {
		t.Fatalf("duration = %v, want >= 1s", d)
	}
	tr.Finish(nil) // ignored
	if tr.Duration() != d || tr.Snapshot().Err != "boom" {
		t.Fatalf("second Finish changed the trace: dur %v err %q", tr.Duration(), tr.Snapshot().Err)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != 0 || tr.Tenant() != "" || tr.Duration() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	if idx := tr.Begin("x", -1, -1); idx != -1 {
		t.Fatalf("nil Begin = %d", idx)
	}
	tr.End(0)
	tr.Span("x", -1, -1, time.Now(), time.Millisecond)
	tr.Finish(nil)
	if snap := tr.Snapshot(); snap.ID != 0 {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
}

func TestSamplerRateLimit(t *testing.T) {
	// 1000 traces/sec = one admission per millisecond. The sampler's clock
	// is the caller-provided time, so the schedule is fully deterministic.
	s := NewSampler(1000)
	t0 := time.Unix(1000, 0)
	if !s.Sample(t0) {
		t.Fatal("first sample not admitted")
	}
	if s.Sample(t0) || s.Sample(t0.Add(500*time.Microsecond)) {
		t.Fatal("admitted inside the interval")
	}
	if !s.Sample(t0.Add(time.Millisecond)) {
		t.Fatal("not admitted after a full interval")
	}
}

func TestSamplerBoost(t *testing.T) {
	s := NewSampler(1000) // 1ms interval, boosted: 125µs
	t0 := time.Unix(1000, 0)
	if !s.Sample(t0) {
		t.Fatal("first sample not admitted")
	}
	// Boost shrinks the interval charged at the next admission; the already
	// scheduled next-admission time stands.
	s.boost(t0)
	t1 := t0.Add(time.Millisecond)
	if !s.Sample(t1) {
		t.Fatal("not admitted at the steady schedule")
	}
	if s.Sample(t1.Add(100 * time.Microsecond)) {
		t.Fatal("admitted inside the boosted interval")
	}
	if !s.Sample(t1.Add(130 * time.Microsecond)) {
		t.Fatal("boosted interval not applied")
	}
	// Past the boost window the steady interval is back.
	t2 := t0.Add(boostWindow + time.Second)
	if !s.Sample(t2) {
		t.Fatal("not admitted after idle")
	}
	if s.Sample(t2.Add(130 * time.Microsecond)) {
		t.Fatal("boost outlived its window")
	}
}

func TestSamplerDisabledAndNil(t *testing.T) {
	now := time.Now()
	for _, s := range []*Sampler{nil, NewSampler(0), NewSampler(-3)} {
		if s.Sample(now) {
			t.Fatalf("sampler %+v admitted with head sampling off", s)
		}
		s.boost(now) // must not panic
	}
}

func TestSpanScope(t *testing.T) {
	var nilScope *SpanScope
	nilScope.Set(nil)
	if nilScope.Get() != nil {
		t.Fatal("nil scope returned a trace")
	}
	sc := NewSpanScope()
	if sc.Get() != nil {
		t.Fatal("fresh scope not empty")
	}
	tr := NewTrace(OpIngest, "a", 1, time.Now())
	sc.Set(tr)
	if sc.Get() != tr {
		t.Fatal("scope did not hold the trace")
	}
	sc.Set(nil)
	if sc.Get() != nil {
		t.Fatal("scope not cleared")
	}
}

func TestTraceStoreRingAndFind(t *testing.T) {
	ts := newTraceStore(4)
	var ids []TraceID
	for i := 0; i < 6; i++ {
		tr := NewTrace(OpIngest, "a", i, time.Now())
		ts.Add(tr)
		ids = append(ids, tr.ID())
	}
	if got := ts.Total("a"); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	snap := ts.Snapshot("a", -1)
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	// Newest first: ids[5], ids[4], ids[3], ids[2].
	for i, tr := range snap {
		if want := ids[5-i]; tr.ID() != want {
			t.Fatalf("snapshot[%d] = trace %d, want %d", i, tr.ID(), want)
		}
	}
	if got := ts.Snapshot("a", 2); len(got) != 2 || got[0].ID() != ids[5] {
		t.Fatalf("Snapshot(a, 2) = %d traces", len(got))
	}
	if ts.Find(ids[5]) == nil {
		t.Fatal("newest trace not findable")
	}
	if ts.Find(ids[0]) != nil {
		t.Fatal("evicted trace still findable")
	}
	if ts.Find(0) != nil {
		t.Fatal("Find(0) returned a trace")
	}
}

func TestTraceStorePerTenantIsolation(t *testing.T) {
	ts := newTraceStore(4)
	quiet := NewTrace(OpIngest, "quiet", 1, time.Now())
	ts.Add(quiet)
	for i := 0; i < 100; i++ {
		ts.Add(NewTrace(OpIngest, "noisy", i, time.Now()))
	}
	// The noisy namespace must not evict the quiet tenant's evidence.
	if ts.Find(quiet.ID()) == nil {
		t.Fatal("noisy tenant evicted another tenant's trace")
	}
	if got := ts.Tenants(); len(got) != 2 || got[0] != "noisy" || got[1] != "quiet" {
		t.Fatalf("tenants = %v", got)
	}
	all := ts.Snapshot("", -1)
	if len(all) != 5 { // 4 noisy + 1 quiet
		t.Fatalf("all-tenant snapshot = %d traces, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID() < all[i].ID() {
			t.Fatal("all-tenant snapshot not newest-first")
		}
	}
	if ts.Total("") != 101 {
		t.Fatalf("grand total = %d, want 101", ts.Total(""))
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	ts.Add(NewTrace(OpIngest, "a", 1, time.Now()))
	if ts.Total("") != 0 || ts.Tenants() != nil || ts.Snapshot("", 5) != nil || ts.Find(1) != nil {
		t.Fatal("nil store leaked state")
	}
	newTraceStore(8).Add(nil) // nil trace: ignored
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(100*time.Nanosecond, 7)
	h.ObserveExemplar(90*time.Nanosecond, 8) // same bucket, faster: not the exemplar
	h.ObserveExemplar(3*time.Microsecond, 9)
	h.Observe(5 * time.Microsecond)          // untraced: never an exemplar
	h.ObserveExemplar(6*time.Microsecond, 0) // id 0: plain observation
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	b1 := bucketOf(int64(100 * time.Nanosecond))
	if s.ExemplarID[b1] != 7 || s.ExemplarVal[b1] != int64(100*time.Nanosecond) {
		t.Fatalf("bucket %d exemplar = id %d val %d", b1, s.ExemplarID[b1], s.ExemplarVal[b1])
	}
	b2 := bucketOf(int64(3 * time.Microsecond))
	if s.ExemplarID[b2] != 9 {
		t.Fatalf("bucket %d exemplar id = %d, want 9", b2, s.ExemplarID[b2])
	}
	b3 := bucketOf(int64(6 * time.Microsecond))
	if s.ExemplarID[b3] != 0 {
		t.Fatalf("untraced bucket %d grew an exemplar (id %d)", b3, s.ExemplarID[b3])
	}
	var nilH *Histogram
	nilH.ObserveExemplar(time.Millisecond, 3) // no-op
}

// TestHistogramExemplarAges pins the aging rule: a fresh exemplar yields
// only to slower observations, a stale one to any traced observation — so
// exemplar IDs keep pointing at traces the bounded rings still retain.
func TestHistogramExemplarAges(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(100*time.Nanosecond, 7)
	b := bucketOf(int64(100 * time.Nanosecond))
	// Fresh: the faster same-bucket observation does not displace it.
	h.ObserveExemplar(90*time.Nanosecond, 8)
	if s := h.Snapshot(); s.ExemplarID[b] != 7 {
		t.Fatalf("fresh exemplar displaced by a faster observation (id %d)", s.ExemplarID[b])
	}
	// Stale: backdate the install time past the TTL; now any traced
	// observation in the bucket takes over, even a faster one.
	h.exTS[b].Store(time.Now().Add(-2 * exemplarTTL).UnixNano())
	h.ObserveExemplar(90*time.Nanosecond, 9)
	s := h.Snapshot()
	if s.ExemplarID[b] != 9 || s.ExemplarVal[b] != int64(90*time.Nanosecond) {
		t.Fatalf("stale exemplar not replaced: id %d val %d", s.ExemplarID[b], s.ExemplarVal[b])
	}
}

func TestRegistryRendersExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.newHistogram("test_exemplar_seconds", "help")
	h.ObserveExemplar(100*time.Microsecond, 42)
	h.Observe(time.Microsecond)
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="42"}`) {
		t.Fatalf("OpenMetrics exposition lacks the exemplar:\n%s", out)
	}
	// Only the traced bucket carries one.
	if n := strings.Count(out, "# {trace_id="); n != 1 {
		t.Fatalf("%d exemplar annotations, want 1:\n%s", n, out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition not terminated with # EOF:\n%s", out)
	}
	// The classic 0.0.4 format has no exemplar syntax — emitting one there
	// breaks every standard Prometheus scrape, so it must stay clean.
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if classic := sb.String(); strings.Contains(classic, "# {") {
		t.Fatalf("classic exposition carries an exemplar annotation:\n%s", classic)
	}
}

func TestTelemetryTailCapture(t *testing.T) {
	reg := NewRegistry()
	tel := NewTelemetry(reg)
	tel.SlowOp = time.Millisecond
	tel.Sampler = NewSampler(0) // head sampling off: tail capture only

	start := time.Now().Add(-10 * time.Millisecond)
	tel.RecordOp(OpIngest, "blue", 50, start, 10*time.Millisecond, nil, nil)
	traces := tel.Traces.Snapshot("blue", -1)
	if len(traces) != 1 {
		t.Fatalf("tail capture retained %d traces, want 1", len(traces))
	}
	snap := traces[0].Snapshot()
	if snap.Tenant != "blue" || snap.Size != 50 || len(snap.Spans) != 0 {
		t.Fatalf("tail trace = %+v, want root-only for tenant blue", snap)
	}
	// The op ring links to the captured trace.
	ops := tel.Ops.Slowest(1)
	if len(ops) != 1 || ops[0].Trace != snap.ID || ops[0].Tenant != "blue" {
		t.Fatalf("op = %+v, want trace %d tenant blue", ops, snap.ID)
	}

	// A fast unsampled op must not be captured.
	tel.RecordOp(OpIngest, "blue", 5, time.Now(), 10*time.Microsecond, nil, nil)
	if got := tel.Traces.Total("blue"); got != 1 {
		t.Fatalf("fast op captured a trace (total %d)", got)
	}
}

func TestTelemetryStartTraceSampling(t *testing.T) {
	tel := NewTelemetry(NewRegistry())
	tel.Sampler = NewSampler(1e9) // effectively always
	tr := tel.StartTrace(OpIngest, "a", 3, time.Now())
	if tr == nil || tr.Tenant() != "a" {
		t.Fatalf("StartTrace = %+v, want a sampled trace", tr)
	}
	tel.Sampler = nil
	if tr := tel.StartTrace(OpIngest, "a", 3, time.Now()); tr != nil {
		t.Fatal("StartTrace sampled with a nil sampler")
	}
	var nilTel *Telemetry
	if nilTel.StartTrace(OpIngest, "a", 1, time.Now()) != nil {
		t.Fatal("nil telemetry sampled")
	}
	nilTel.RecordOp(OpIngest, "a", 1, time.Now(), time.Second, nil, nil) // no-op
}

func TestTraceConcurrentSpans(t *testing.T) {
	// Lanes record spans concurrently, possibly after Finish.
	tr := NewTrace(OpIngest, "a", 64, time.Now())
	var wg sync.WaitGroup
	for lane := 0; lane < 8; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				idx := tr.Begin("stamp", lane, -1)
				tr.Span("xwait", lane, idx, time.Now(), time.Microsecond)
				tr.End(idx)
			}
		}(lane)
	}
	tr.Finish(nil)
	for i := 0; i < 20; i++ {
		_ = tr.Snapshot() // racing readers must always see a consistent tree
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Spans) != 8*50 {
		t.Fatalf("top-level spans = %d, want 400", len(snap.Spans))
	}
}

// TestUntracedPathAllocationFree pins the tracing plane's hot-path contract:
// a batch that is not sampled must not cost a single allocation — the
// sampler decision, the nil-trace span calls threaded through the pipeline,
// and the untraced exemplar observation are all allocation-free.
func TestUntracedPathAllocationFree(t *testing.T) {
	tel := NewTelemetry(NewRegistry())
	tel.Sampler = NewSampler(0) // head sampling off: StartTrace always declines
	now := time.Now()
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		tr := tel.StartTrace(OpIngest, "a", 64, now)
		idx := tr.Begin("validate", -1, -1)
		tr.Span("xwait", 0, idx, now, time.Microsecond)
		tr.End(idx)
		h.ObserveExemplar(time.Microsecond, tr.ID())
		tel.Sampler.boost(now)
	}); n != 0 {
		t.Fatalf("untraced path allocates %v per op, want 0", n)
	}
	s := NewSampler(1e9)
	if n := testing.AllocsPerRun(1000, func() { s.Sample(now) }); n != 0 {
		t.Fatalf("sampling decision allocates %v per op, want 0", n)
	}

	// The ingest barrier is on the same per-frame hot path (queries barrier
	// before answering): once warm, a barrier round-trip on a sharded
	// pipeline with the pipelined planner must be allocation-free — the
	// issued-count snapshot and barrier markers are pooled.
	pipe, err := hct.NewPipeline(4, hct.Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
		hct.PipelineOptions{Shards: 2, PlanQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	warm := []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Unary},
	}
	if err := pipe.DispatchAsync(warm, nil); err != nil {
		t.Fatal(err)
	}
	pipe.Barrier()
	if n := testing.AllocsPerRun(1000, func() { pipe.Barrier() }); n != 0 {
		t.Fatalf("ingest barrier allocates %v per round-trip, want 0", n)
	}
}
