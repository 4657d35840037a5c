// Package obs is the daemon's telemetry core: lock-free log-bucketed
// histograms, counters and gauges, a registry that renders the Prometheus
// text exposition format, a bounded ring of recent operation traces, and the
// admin HTTP surface (/metrics, /debug/pprof, /healthz, /readyz, /statusz,
// /tracez) that poetd serves, on a bounded HTTP/1.1 responder of its own
// rather than net/http.
//
// The package depends on nothing else in the repository, so every layer —
// the monitor server, the collector, the write-ahead log — can carry
// instruments without import cycles. All hot-path operations (Histogram.
// Observe, Counter.Add, Gauge.Set) are single atomic updates.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite histogram buckets. Bucket i holds
// observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), so the
// finite range covers 1..2^43 units — for nanosecond latencies that is
// ~2.4 hours, far beyond any op this daemon times. Larger observations land
// in the implicit +Inf bucket.
const histBuckets = 44

// Histogram is a lock-free histogram over power-of-two bucket bounds.
// Observe is a few atomic adds and is safe from any number of goroutines;
// there is no lock to contend on and no allocation. The zero histogram is
// usable but unregistered; NewRegistry().newHistogram attaches one to an
// exposition surface.
//
// A Histogram counts either durations (Observe, rendered with bucket bounds
// in seconds) or plain magnitudes such as batch sizes (ObserveValue, bounds
// rendered as raw counts); the rendering scale is fixed at construction.
type Histogram struct {
	name, help string
	scale      float64 // multiplies 2^i for the rendered le bound
	buckets    [histBuckets + 1]atomic.Uint64
	sum        atomic.Int64
	max        atomic.Int64

	// Exemplars: per bucket, the trace ID and value of the slowest traced
	// observation that landed there within the last exemplarTTL (see
	// ObserveExemplar); exTS is the exemplar's install time in unix nanos.
	// The val/id/ts triple is not updated atomically as a unit — a racing
	// exemplar may briefly pair one trace's value with another's ID, which
	// is acceptable for a debugging pointer and keeps the path lock-free.
	exVal [histBuckets + 1]atomic.Int64
	exID  [histBuckets + 1]atomic.Uint64
	exTS  [histBuckets + 1]atomic.Int64
}

// exemplarTTL bounds an exemplar's reign over its bucket: while the current
// exemplar is younger than this, only a slower traced observation replaces
// it; once it ages out, the next traced observation takes over regardless.
// Without the window the slowest-ever observation wins forever, and its
// trace — evicted from the bounded per-tenant rings long ago — would 404 at
// /tracez exactly when a dashboard user follows the exemplar. The window is
// a couple of scrape intervals: long enough to keep "slowest per bucket"
// meaningful within a scrape, short enough that exemplar IDs usually still
// resolve to retained traces.
const exemplarTTL = 30 * time.Second

// bucketOf returns the bucket index for observation v: the smallest i with
// v <= 2^i, clamped to the +Inf bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one latency observation. Safe on a nil receiver (no-op),
// so call sites need no telemetry-enabled branch.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.observe(int64(d))
}

// ObserveSince records the latency elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.observe(int64(time.Since(start)))
}

// ObserveValue records one plain-magnitude observation (e.g. a batch size).
func (h *Histogram) ObserveValue(v int64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// ObserveExemplar records one latency observation and, when id is non-zero,
// remembers it as the bucket's exemplar if it is the slowest traced
// observation in that bucket within the last exemplarTTL; a stale exemplar
// is replaced by any traced observation, so exemplar IDs keep pointing at
// traces the bounded rings still retain. Untraced call sites use Observe
// (or pass id 0) and pay nothing for the exemplar machinery.
func (h *Histogram) ObserveExemplar(d time.Duration, id TraceID) {
	if h == nil {
		return
	}
	v := int64(d)
	h.observe(v)
	if id == 0 {
		return
	}
	b := bucketOf(v)
	now := time.Now().UnixNano()
	for {
		cur := h.exVal[b].Load()
		if v < cur && now-h.exTS[b].Load() < int64(exemplarTTL) {
			return // the reigning exemplar is slower and still fresh
		}
		if h.exVal[b].CompareAndSwap(cur, v) {
			h.exID[b].Store(uint64(id))
			h.exTS[b].Store(now)
			return
		}
	}
}

func (h *Histogram) observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets are
// non-cumulative per-bucket counts; index histBuckets is the +Inf bucket.
// ExemplarID[i] is the trace ID of the slowest recently traced observation
// in bucket i (0 = none, aging per exemplarTTL) and ExemplarVal[i] its raw
// value.
type HistSnapshot struct {
	Buckets     [histBuckets + 1]uint64
	Count       uint64
	Sum         int64
	Max         int64
	ExemplarVal [histBuckets + 1]int64
	ExemplarID  [histBuckets + 1]TraceID
}

// Snapshot copies the histogram's state. Each field is read atomically; the
// set is not a global atomic snapshot, which is fine for monotone counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
		if id := h.exID[i].Load(); id != 0 {
			s.ExemplarID[i] = TraceID(id)
			s.ExemplarVal[i] = h.exVal[i].Load()
		}
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// upperBound returns bucket i's upper bound in raw units, or +Inf for the
// overflow bucket.
func (s HistSnapshot) upperBound(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return math.Ldexp(1, i) // 2^i
}

// quantile returns an upper bound for the q-quantile (0 < q <= 1) in raw
// units: the upper bound of the bucket containing the q-th observation. For
// observations in the +Inf bucket the recorded maximum is returned. A zero
// histogram yields 0.
func (s HistSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			return int64(1) << uint(i)
		}
	}
	return s.Max
}

// Summary condenses a snapshot into the quantiles dashboards want.
type Summary struct {
	Count uint64
	Sum   int64
	P50   int64
	P90   int64
	P99   int64
	Max   int64
}

// Summary returns count, sum and p50/p90/p99/max in raw units.
func (h *Histogram) Summary() Summary {
	s := h.Snapshot()
	return Summary{
		Count: s.Count,
		Sum:   s.Sum,
		P50:   s.quantile(0.50),
		P90:   s.quantile(0.90),
		P99:   s.quantile(0.99),
		Max:   s.Max,
	}
}

// DurationSummary is a Summary with the latency fields as seconds, for JSON
// status surfaces.
type DurationSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// DurationSummary converts a latency histogram's summary to seconds.
func (h *Histogram) DurationSummary() DurationSummary {
	s := h.Summary()
	return DurationSummary{
		Count: s.Count,
		P50:   time.Duration(s.P50).Seconds(),
		P90:   time.Duration(s.P90).Seconds(),
		P99:   time.Duration(s.P99).Seconds(),
		Max:   time.Duration(s.Max).Seconds(),
	}
}
