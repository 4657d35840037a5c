package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one sampled batch trace, unique within the process.
// ID 0 means "no trace" everywhere (exemplars, ops, span scopes).
type TraceID uint64

var traceIDs atomic.Uint64

// nextTraceID allocates a process-unique trace ID (never 0).
func nextTraceID() TraceID { return TraceID(traceIDs.Add(1)) }

// Span is one stage of a traced batch: a named interval positioned relative
// to the trace start. Parent is the index of the enclosing span in the
// trace's span list, or -1 when the span hangs directly off the root op.
// Lane is the stamping lane that did the work, -1 for stages that are not
// lane-bound.
type Span struct {
	Name   string        `json:"name"`
	Lane   int           `json:"lane"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // offset from the trace start
	Dur    time.Duration `json:"dur_ns"`   // -1 while the span is open
}

// Trace is a span-structured record of one batch through the pipeline:
// a root operation (decode → ack) plus an ordered tree of stage spans
// (decode, queue, validate, wal_append/wal_fsync, plan, stamp, xwait).
// Traces are created only for sampled batches, so every method is nil-safe
// and the untraced hot path pays a single pointer comparison.
//
// Spans may keep arriving after Finish: stamping lanes run asynchronously
// and record their spans when the chunk drains, possibly after the batch
// was acknowledged. Snapshot takes the same mutex, so readers always see a
// consistent (if still-growing) tree.
type Trace struct {
	id     TraceID
	tenant string
	kind   string
	size   int
	start  time.Time

	mu    sync.Mutex
	spans []Span
	dur   time.Duration
	err   string
	done  bool
}

// NewTrace starts a trace rooted at start. Prefer Telemetry.StartTrace,
// which applies the sampling policy; NewTrace is for tests and forced
// captures.
func NewTrace(kind, tenant string, size int, start time.Time) *Trace {
	return &Trace{id: nextTraceID(), kind: kind, tenant: tenant, size: size, start: start}
}

// ID returns the trace's process-unique ID, 0 for a nil trace.
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Tenant returns the tenant the traced batch belongs to.
func (t *Trace) Tenant() string {
	if t == nil {
		return ""
	}
	return t.tenant
}

// Begin opens a span and returns its index for End. On a nil trace it
// returns -1, which every other span method accepts as "no span".
func (t *Trace) Begin(name string, lane, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Lane: lane, Parent: parent, Start: time.Since(t.start), Dur: -1})
	t.mu.Unlock()
	return idx
}

// End closes the span opened by Begin. Safe on a nil trace or idx -1.
func (t *Trace) End(idx int) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	if idx < len(t.spans) {
		sp := &t.spans[idx]
		sp.Dur = time.Since(t.start) - sp.Start
	}
	t.mu.Unlock()
}

// Span records an already-measured interval [start, start+d) as a span and
// returns its index. It is the one-call form of Begin/End for stages whose
// timing was captured before the recording point (e.g. a mutex wait).
func (t *Trace) Span(name string, lane, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Lane: lane, Parent: parent, Start: start.Sub(t.start), Dur: d})
	t.mu.Unlock()
	return idx
}

// Finish closes the root op: total duration measured from the trace start,
// plus the batch outcome. Later Finish calls are ignored.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.dur = d
		if err != nil {
			t.err = err.Error()
		}
	}
	t.mu.Unlock()
}

// Duration returns the root duration (0 until Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// SpanNode is one node of a rendered span tree: the span plus its computed
// self time (duration minus the sum of its children's durations, clamped at
// zero — lanes overlap, so a parent can be shorter than its children's sum).
type SpanNode struct {
	Name     string        `json:"name"`
	Lane     int           `json:"lane,omitempty"`
	Start    time.Duration `json:"start_ns"`
	Dur      time.Duration `json:"dur_ns"`
	Self     time.Duration `json:"self_ns"`
	Children []*SpanNode   `json:"children,omitempty"`
}

// TraceSnapshot is a point-in-time copy of a trace for rendering: the root
// op fields plus the span tree. Self on the root is the time not accounted
// to any top-level span.
type TraceSnapshot struct {
	ID       TraceID       `json:"id"`
	Tenant   string        `json:"tenant"`
	Kind     string        `json:"kind"`
	Size     int           `json:"size"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Self     time.Duration `json:"self_ns"`
	Err      string        `json:"err,omitempty"`
	Spans    []*SpanNode   `json:"spans,omitempty"`
}

// Snapshot renders the trace as a span tree with self times. Open spans
// (lanes still stamping) render with Dur -1 and contribute nothing to their
// parent's self-time subtraction.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	snap := TraceSnapshot{
		ID: t.id, Tenant: t.tenant, Kind: t.kind, Size: t.size,
		Start: t.start, Duration: t.dur, Err: t.err,
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	nodes := make([]*SpanNode, len(spans))
	for i, sp := range spans {
		nodes[i] = &SpanNode{Name: sp.Name, Lane: sp.Lane, Start: sp.Start, Dur: sp.Dur, Self: sp.Dur}
	}
	var rootChildDur time.Duration
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(nodes) && sp.Parent != i {
			p := nodes[sp.Parent]
			p.Children = append(p.Children, nodes[i])
			if sp.Dur > 0 {
				p.Self -= sp.Dur
			}
		} else if sp.Parent < 0 {
			snap.Spans = append(snap.Spans, nodes[i])
			if sp.Dur > 0 {
				rootChildDur += sp.Dur
			}
		}
	}
	for _, n := range nodes {
		if n.Self < 0 {
			n.Self = 0
		}
	}
	if snap.Self = snap.Duration - rootChildDur; snap.Self < 0 {
		snap.Self = 0
	}
	return snap
}

// Sampler decides which batches get a full span trace. It is a head sampler
// bounded by a steady-state rate (one trace per interval), with an adaptive
// boost: after a slow op the interval shrinks by boostDiv for boostWindow,
// so an incident is captured densely without raising the steady cost.
// Decisions are one atomic load plus (on the sampled path) one CAS; the
// not-sampled path never writes shared state after the initial load.
type Sampler struct {
	interval   int64 // ns between head samples; <=0 disables head sampling
	next       atomic.Int64
	boostUntil atomic.Int64
}

const (
	// DefaultTraceRate is the default head-sampling rate in traces/sec,
	// the -trace-sample default.
	DefaultTraceRate = 25.0
	boostDiv         = 8
	boostWindow      = 2 * time.Second
)

// NewSampler returns a head sampler admitting at most perSec traces per
// second in steady state (bursts after idle are not credited: the limiter
// tracks the next admission time, not tokens). perSec <= 0 disables head
// sampling — only tail capture remains.
func NewSampler(perSec float64) *Sampler {
	s := &Sampler{}
	if perSec > 0 {
		iv := int64(float64(time.Second) / perSec)
		if iv < 1 {
			iv = 1
		}
		s.interval = iv
	}
	return s
}

// Sample reports whether a batch starting now should carry a trace.
// Safe on a nil receiver (never samples).
func (s *Sampler) Sample(now time.Time) bool {
	if s == nil || s.interval <= 0 {
		return false
	}
	iv := s.interval
	n := now.UnixNano()
	if n < s.boostUntil.Load() {
		iv /= boostDiv
		if iv < 1 {
			iv = 1
		}
	}
	for {
		next := s.next.Load()
		if n < next {
			return false
		}
		if s.next.CompareAndSwap(next, n+iv) {
			return true
		}
	}
}

// boost densifies head sampling for a short window, called when a slow op
// is observed so the traces around an incident are captured. Safe on nil.
func (s *Sampler) boost(now time.Time) {
	if s == nil || s.interval <= 0 {
		return
	}
	s.boostUntil.Store(now.Add(boostWindow).UnixNano())
}

// SpanScope hands a trace across a layer boundary that has no parameter for
// it: the collector sets the scope around its journal append, and the WAL —
// which only knows its Options — picks the trace up to record append/fsync
// spans. One scope pairs one collector with one WAL; the collector's mutex
// already serializes Set/Clear against the appends in between, and the
// atomic makes concurrent readers (WAL tick loops) safe — they observe nil
// and skip span recording.
type SpanScope struct {
	cur atomic.Pointer[Trace]
}

// NewSpanScope returns an empty scope.
func NewSpanScope() *SpanScope { return &SpanScope{} }

// Set installs t as the scope's current trace (nil clears). Safe on nil.
func (s *SpanScope) Set(t *Trace) {
	if s != nil {
		s.cur.Store(t)
	}
}

// Get returns the current trace, nil when no traced batch is in scope.
func (s *SpanScope) Get() *Trace {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// TraceStore retains sampled traces in bounded per-tenant rings, so one
// noisy namespace cannot evict another tenant's evidence. Lookup by ID
// serves exemplar resolution (/metrics → /tracez?trace=N).
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	rings map[string]*spanRing
}

type spanRing struct {
	buf   []*Trace
	next  int
	total uint64
}

// DefaultTraceStoreCap is the per-tenant trace ring capacity.
const DefaultTraceStoreCap = 64

// newTraceStore returns a store retaining the last capacity traces per
// tenant (minimum 1).
func newTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, rings: make(map[string]*spanRing)}
}

// Add retains t in its tenant's ring, evicting the oldest. Safe on a nil
// store or nil trace.
func (ts *TraceStore) Add(t *Trace) {
	if ts == nil || t == nil {
		return
	}
	ts.mu.Lock()
	r := ts.rings[t.tenant]
	if r == nil {
		r = &spanRing{buf: make([]*Trace, 0, ts.cap)}
		ts.rings[t.tenant] = r
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	ts.mu.Unlock()
}

// Total returns the number of traces ever retained for tenant, or across
// all tenants when tenant is "".
func (ts *TraceStore) Total(tenant string) uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tenant != "" {
		if r := ts.rings[tenant]; r != nil {
			return r.total
		}
		return 0
	}
	var n uint64
	for _, r := range ts.rings {
		n += r.total
	}
	return n
}

// Tenants returns the tenant names with retained traces, sorted.
func (ts *TraceStore) Tenants() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	names := make([]string, 0, len(ts.rings))
	for k := range ts.rings {
		names = append(names, k)
	}
	ts.mu.Unlock()
	sort.Strings(names)
	return names
}

// Snapshot returns up to n retained traces, newest first, for one tenant
// ("" = all tenants interleaved by recency of retention order).
func (ts *TraceStore) Snapshot(tenant string, n int) []*Trace {
	if ts == nil || n == 0 {
		return nil
	}
	ts.mu.Lock()
	var out []*Trace
	appendRing := func(r *spanRing) {
		// Walk newest → oldest.
		for i := 0; i < len(r.buf); i++ {
			j := (r.next - 1 - i + 2*cap(r.buf)) % cap(r.buf)
			if j < len(r.buf) {
				out = append(out, r.buf[j])
			}
		}
	}
	if tenant != "" {
		if r := ts.rings[tenant]; r != nil {
			appendRing(r)
		}
	} else {
		for _, r := range ts.rings {
			appendRing(r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id > out[j].id })
	}
	ts.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Find returns the retained trace with the given ID, nil if evicted or
// never stored.
func (ts *TraceStore) Find(id TraceID) *Trace {
	if ts == nil || id == 0 {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, r := range ts.rings {
		for _, t := range r.buf {
			if t.id == id {
				return t
			}
		}
	}
	return nil
}
