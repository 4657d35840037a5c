package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << 43, 43}, {1<<43 + 1, histBuckets}, {1 << 60, histBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramInvariants is the property test: for random observation sets,
// the snapshot must satisfy the histogram laws — exact count/sum/max, every
// observation inside its bucket's bounds, and a monotone cumulative
// distribution whose total equals the count.
func TestHistogramInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		var h Histogram
		n := 1 + r.Intn(400)
		var wantSum, wantMax int64
		byBucket := make(map[int]uint64)
		for i := 0; i < n; i++ {
			// Mix magnitudes: small counts, mid-range latencies, and the
			// occasional monster that lands in the +Inf bucket.
			var v int64
			switch r.Intn(3) {
			case 0:
				v = int64(r.Intn(10))
			case 1:
				v = int64(r.Intn(1 << 20))
			default:
				v = int64(r.Uint64() >> (1 + r.Intn(20)))
			}
			h.ObserveValue(v)
			wantSum += v
			if v > wantMax {
				wantMax = v
			}
			byBucket[bucketOf(v)]++
		}

		s := h.Snapshot()
		if s.Count != uint64(n) {
			t.Fatalf("round %d: Count = %d, want %d", round, s.Count, n)
		}
		if s.Sum != wantSum {
			t.Fatalf("round %d: Sum = %d, want %d", round, s.Sum, wantSum)
		}
		if s.Max != wantMax {
			t.Fatalf("round %d: Max = %d, want %d", round, s.Max, wantMax)
		}
		var cum, prev uint64
		for i := 0; i <= histBuckets; i++ {
			if s.Buckets[i] != byBucket[i] {
				t.Fatalf("round %d: bucket %d holds %d, want %d", round, i, s.Buckets[i], byBucket[i])
			}
			cum += s.Buckets[i]
			if cum < prev {
				t.Fatalf("round %d: cumulative distribution decreased at bucket %d", round, i)
			}
			prev = cum
			if i > 0 && s.upperBound(i) <= s.upperBound(i-1) {
				t.Fatalf("round %d: bucket bounds not increasing at %d", round, i)
			}
		}
		if cum != s.Count {
			t.Fatalf("round %d: cumulative total %d != count %d", round, cum, s.Count)
		}

		// Quantiles are upper bounds and are monotone in q.
		q50, q90, q99 := s.quantile(0.50), s.quantile(0.90), s.quantile(0.99)
		if q50 > q90 || q90 > q99 {
			t.Fatalf("round %d: quantiles not monotone: p50=%d p90=%d p99=%d", round, q50, q90, q99)
		}
		if q := s.quantile(1.0); q < wantMax && q != s.Max {
			t.Fatalf("round %d: quantile(1.0) = %d below max %d", round, q, wantMax)
		}
	}
}

func TestHistogramQuantileSmall(t *testing.T) {
	var h Histogram
	// 10 observations of 100 (bucket 7, bound 128) and one of 10_000
	// (bucket 14, bound 16384).
	for i := 0; i < 10; i++ {
		h.ObserveValue(100)
	}
	h.ObserveValue(10_000)
	s := h.Snapshot()
	if got := s.quantile(0.5); got != 128 {
		t.Errorf("p50 = %d, want bucket bound 128", got)
	}
	if got := s.quantile(0.99); got != 16384 {
		t.Errorf("p99 = %d, want bucket bound 16384", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	h.ObserveValue(7)
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.ObserveValue(math.MaxInt64)
	s := h.Snapshot()
	if s.Buckets[histBuckets] != 1 {
		t.Fatalf("giant observation not in +Inf bucket: %v", s.Buckets)
	}
	if !math.IsInf(s.upperBound(histBuckets), 1) {
		t.Fatal("overflow bucket bound is not +Inf")
	}
	if got := s.quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("quantile in +Inf bucket = %d, want recorded max", got)
	}
}

func TestDurationSummary(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	d := h.DurationSummary()
	if d.Count != 2 {
		t.Fatalf("count = %d", d.Count)
	}
	if d.Max != (2 * time.Millisecond).Seconds() {
		t.Fatalf("max = %v seconds, want 0.002", d.Max)
	}
	if d.P50 <= 0 || d.P99 < d.P50 {
		t.Fatalf("quantiles out of order: %+v", d)
	}
}
