package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The instrument is the
// storage: its owner bumps it, and every surface that reports the number —
// a /metrics scrape, a STATS body, /statusz — reads Value.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits
}

// Set replaces the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// entry is one registered metric: its metadata and a renderer that appends
// the sample lines (everything below # HELP/# TYPE) for the current state.
// om selects the OpenMetrics dialect: counters gain the mandatory _total
// sample suffix and histogram buckets carry exemplars, which the classic
// 0.0.4 text format has no syntax for.
type entry struct {
	name, help, typ string
	write           func(w *bufio.Writer, om bool)
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format — classic (version 0.0.4) or OpenMetrics, negotiated
// per scrape by the admin responder's /metrics. Registration is cheap but locked;
// updating a registered instrument is lock-free. Metric names must be unique
// and match [a-zA-Z_:][a-zA-Z0-9_:]* — violations panic, as they are
// programming errors on the daemon's fixed instrument set.
//
// A nil *Registry is the unexposed one: its New* constructors hand out live
// instruments that count and read back like any other and appear on no
// scrape (RegisterCounter / RegisterGauge expose them later, if ever), and
// every other registration is a no-op. An uninstrumented server and a bare
// write-ahead log count on such instruments.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(e entry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", e.name))
	}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.names[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// fmtVal renders a sample value the way Prometheus expects.
func fmtVal(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// counterSample returns the sample name for a counter: unchanged in the
// classic format; in OpenMetrics the spec requires the _total suffix (the
// daemon's counters already carry it, so their series names are identical
// in both dialects).
func counterSample(name string, om bool) string {
	if om && !strings.HasSuffix(name, "_total") {
		return name + "_total"
	}
	return name
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.RegisterCounter(c)
	return c
}

// RegisterCounter exposes counters a nil Registry handed out.
func (r *Registry) RegisterCounter(cs ...*Counter) {
	for _, c := range cs {
		r.CounterFunc(c.name, c.help, func() float64 { return float64(c.Value()) })
	}
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.RegisterGauge(g)
	return g
}

// RegisterGauge exposes gauges a nil Registry handed out.
func (r *Registry) RegisterGauge(gs ...*Gauge) {
	for _, g := range gs {
		r.GaugeFunc(g.name, g.help, g.Value)
	}
}

// CounterFunc registers a counter whose value is derived at render time —
// a tally another component keeps in its own form (the pipeline's
// cross-shard waits, the monitor's Section 4 accounting). A number this
// package can hold is a Counter instead, bumped where it happens.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(entry{name: name, help: help, typ: "counter", write: func(w *bufio.Writer, om bool) {
		fmt.Fprintf(w, "%s %s\n", counterSample(name, om), fmtVal(fn()))
	}})
}

// GaugeFunc registers a gauge whose value is read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(entry{name: name, help: help, typ: "gauge", write: func(w *bufio.Writer, _ bool) {
		fmt.Fprintf(w, "%s %s\n", name, fmtVal(fn()))
	}})
}

// GaugeVecFunc registers a family of gauges distinguished by one label,
// produced by fn at render time. Samples are rendered in sorted label-value
// order so scrapes are deterministic.
//
// Concurrent scrapes render entries outside the registry lock, so the call
// to fn and the iteration over its result are serialized per entry; fn may
// therefore return a map it reuses across calls, making steady-state
// scrapes allocation-free.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.vecFunc("gauge", name, help, label, fn)
}

// CounterVecFunc is GaugeVecFunc for a family of monotone totals: the same
// serialization and reused-map contract, typed counter (in OpenMetrics the
// family line drops _total and the samples keep it, as for a Counter).
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	r.vecFunc("counter", name, help, label, fn)
}

func (r *Registry) vecFunc(typ, name, help, label string, fn func() map[string]float64) {
	if !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	var mu sync.Mutex
	var keys []string
	r.register(entry{name: name, help: help, typ: typ, write: func(w *bufio.Writer, om bool) {
		mu.Lock()
		defer mu.Unlock()
		vals := fn()
		keys = keys[:0]
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sample := name
		if typ == "counter" {
			sample = counterSample(name, om)
		}
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %s\n", sample, label, k, fmtVal(vals[k]))
		}
	}})
}

// newHistogram registers and returns a latency histogram; bucket bounds are
// rendered in seconds (2^i nanoseconds), per the Prometheus convention that
// duration metrics are in seconds. By convention name should end in
// "_seconds".
func (r *Registry) newHistogram(name, help string) *Histogram {
	return r.registerHistogram(name, help, 1e-9)
}

// newSizeHistogram registers and returns a magnitude histogram (batch sizes,
// byte counts); bucket bounds are rendered as raw powers of two.
func (r *Registry) newSizeHistogram(name, help string) *Histogram {
	return r.registerHistogram(name, help, 1)
}

func (r *Registry) registerHistogram(name, help string, scale float64) *Histogram {
	h := &Histogram{name: name, help: help, scale: scale}
	r.register(entry{name: name, help: help, typ: "histogram", write: func(w *bufio.Writer, om bool) {
		s := h.Snapshot()
		var cum uint64
		for i := 0; i <= histBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if i < histBuckets {
				le = fmtVal(s.upperBound(i) * scale)
			}
			if id := s.ExemplarID[i]; om && id != 0 {
				// Exemplar: the slowest recently traced observation in this
				// bucket, resolvable at /tracez?trace=<id>. OpenMetrics only —
				// the classic 0.0.4 parser rejects anything after the value,
				// so emitting it there would fail the whole scrape.
				fmt.Fprintf(w, "%s_bucket{le=%q} %d # {trace_id=\"%d\"} %s\n",
					name, le, cum, uint64(id), fmtVal(float64(s.ExemplarVal[i])*scale))
			} else {
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
			}
		}
		fmt.Fprintf(w, "%s_sum %s\n", name, fmtVal(float64(s.Sum)*scale))
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}})
	return h
}

// WritePrometheus renders every registered metric in name order — a # HELP
// and # TYPE line followed by the metric's samples — in the classic text
// exposition format (version 0.0.4). The classic format has no exemplar
// syntax, so none are emitted; use WriteOpenMetrics for those.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text format
// (version 1.0.0): counter samples carry the spec-mandated _total suffix
// (the family name in # HELP/# TYPE drops it), histogram buckets carry
// exemplars, and the output is terminated with # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.write(w, true)
}

func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	bw := bufio.NewWriterSize(w, 16*1024)
	for _, e := range entries {
		name := e.name
		if om && e.typ == "counter" {
			// OpenMetrics names the family without the _total sample suffix.
			name = strings.TrimSuffix(name, "_total")
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, e.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, e.typ)
		e.write(bw, om)
	}
	if om {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// Exposition content types, negotiated per scrape by the admin responder's
// /metrics (http.go) from the Accept header. A client that accepts
// application/openmetrics-text (Prometheus does when exemplar ingestion is
// enabled) gets the OpenMetrics rendering with exemplars; everyone else gets
// the classic 0.0.4 format, whose parsers would reject exemplar annotations.
const (
	contentTypeClassic     = "text/plain; version=0.0.4; charset=utf-8"
	contentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)
