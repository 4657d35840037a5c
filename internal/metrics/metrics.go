// Package metrics analyzes timestamp-size sweep results: ratio curves over
// maximum cluster size, and the "within 20% of best" range analyses the
// paper uses to compare clustering strategies (Section 4).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DefaultFixedVector is the fixed timestamp-encoding vector size used by the
// POET and OLT observation tools, and the paper's default.
const DefaultFixedVector = 300

// DefaultFactor is the paper's quality bar: a timestamp size within 20% of
// the best achieved for that computation.
const DefaultFactor = 1.2

// Curve is one computation × strategy sweep: the average timestamp ratio at
// each maximum cluster size. MaxCS is ascending; the two slices are
// parallel.
type Curve struct {
	Computation string
	Strategy    string
	MaxCS       []int
	Ratio       []float64
}

// Len returns the number of sweep points.
func (c *Curve) Len() int { return len(c.MaxCS) }

// At returns the ratio at the given maximum cluster size.
func (c *Curve) At(maxCS int) (float64, bool) {
	i := sort.SearchInts(c.MaxCS, maxCS)
	if i < len(c.MaxCS) && c.MaxCS[i] == maxCS {
		return c.Ratio[i], true
	}
	return 0, false
}

// Best returns the sweep point with the lowest ratio (earliest on ties).
func (c *Curve) Best() (maxCS int, ratio float64) {
	if c.Len() == 0 {
		return 0, math.NaN()
	}
	maxCS, ratio = c.MaxCS[0], c.Ratio[0]
	for i := 1; i < c.Len(); i++ {
		if c.Ratio[i] < ratio {
			maxCS, ratio = c.MaxCS[i], c.Ratio[i]
		}
	}
	return maxCS, ratio
}

// WithinFactor returns the set of maxCS values whose ratio is within
// factor×best, ascending.
func (c *Curve) WithinFactor(factor float64) []int {
	_, best := c.Best()
	var out []int
	for i := 0; i < c.Len(); i++ {
		if c.Ratio[i] <= best*factor {
			out = append(out, c.MaxCS[i])
		}
	}
	return out
}

// TotalVariation measures the curve's roughness: the sum of absolute ratio
// changes between consecutive sweep points. The paper's static algorithm
// produces "relatively smooth ratio curves"; merge-on-1st does not.
func (c *Curve) TotalVariation() float64 {
	var tv float64
	for i := 1; i < c.Len(); i++ {
		tv += math.Abs(c.Ratio[i] - c.Ratio[i-1])
	}
	return tv
}

// MaxRatio returns the largest ratio on the curve.
func (c *Curve) MaxRatio() float64 {
	m := 0.0
	for _, r := range c.Ratio {
		if r > m {
			m = r
		}
	}
	return m
}

// Validate checks structural invariants.
func (c *Curve) Validate() error {
	if len(c.MaxCS) != len(c.Ratio) {
		return fmt.Errorf("metrics: curve %s/%s: %d sizes vs %d ratios", c.Computation, c.Strategy, len(c.MaxCS), len(c.Ratio))
	}
	for i := 1; i < len(c.MaxCS); i++ {
		if c.MaxCS[i-1] >= c.MaxCS[i] {
			return fmt.Errorf("metrics: curve %s/%s: MaxCS not ascending at %d", c.Computation, c.Strategy, i)
		}
	}
	for i, r := range c.Ratio {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("metrics: curve %s/%s: bad ratio %f at %d", c.Computation, c.Strategy, r, i)
		}
	}
	return nil
}

// ViolationCounts returns, for each maxCS present in every curve, the number
// of curves whose ratio there exceeds factor×(that curve's best).
func ViolationCounts(curves []*Curve, factor float64) map[int]int {
	if len(curves) == 0 {
		return nil
	}
	out := make(map[int]int)
	for _, maxCS := range curves[0].MaxCS {
		violations := 0
		for _, c := range curves {
			r, ok := c.At(maxCS)
			if !ok {
				violations = -1
				break
			}
			_, best := c.Best()
			if r > best*factor {
				violations++
			}
		}
		if violations >= 0 {
			out[maxCS] = violations
		}
	}
	return out
}

// Window is a contiguous range of maximum cluster sizes.
type Window struct {
	Lo, Hi int // inclusive
}

// Width returns the number of integer sizes the window spans.
func (w Window) Width() int { return w.Hi - w.Lo + 1 }

// String renders the window like "[9,17]".
func (w Window) String() string { return fmt.Sprintf("[%d,%d]", w.Lo, w.Hi) }

// BestWindow returns the widest contiguous run of maxCS values at which at
// most maxViolations curves fall outside factor×best, together with the
// worst violation count inside that run. The boolean is false when no sweep
// point qualifies.
func BestWindow(curves []*Curve, factor float64, maxViolations int) (Window, bool) {
	if len(curves) == 0 {
		return Window{}, false
	}
	vc := ViolationCounts(curves, factor)
	sizes := make([]int, 0, len(vc))
	for s := range vc {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	best := Window{}
	found := false
	i := 0
	for i < len(sizes) {
		if vc[sizes[i]] > maxViolations {
			i++
			continue
		}
		j := i
		for j+1 < len(sizes) && sizes[j+1] == sizes[j]+1 && vc[sizes[j+1]] <= maxViolations {
			j++
		}
		w := Window{Lo: sizes[i], Hi: sizes[j]}
		if !found || w.Width() > best.Width() {
			best, found = w, true
		}
		i = j + 1
	}
	return best, found
}

// coverageAt returns the fraction of curves whose ratio at maxCS is within
// factor×best. Curves lacking that sweep point count as not covered.
func coverageAt(curves []*Curve, maxCS int, factor float64) float64 {
	if len(curves) == 0 {
		return 0
	}
	covered := 0
	for _, c := range curves {
		r, ok := c.At(maxCS)
		if !ok {
			continue
		}
		_, best := c.Best()
		if r <= best*factor {
			covered++
		}
	}
	return float64(covered) / float64(len(curves))
}

// MaxCoverage returns the best single-size coverage over all sweep points of
// the first curve, and the size achieving it. This is the statistic behind
// the paper's merge-on-1st observation: "less than 80% of the computations
// were within 20% of the best for any given maximum cluster size".
func MaxCoverage(curves []*Curve, factor float64) (maxCS int, coverage float64) {
	if len(curves) == 0 {
		return 0, 0
	}
	for _, s := range curves[0].MaxCS {
		if c := coverageAt(curves, s, factor); c > coverage {
			maxCS, coverage = s, c
		}
	}
	return maxCS, coverage
}

// Violators returns the computations whose curve at maxCS exceeds
// factor×best, with their ratio there.
func Violators(curves []*Curve, maxCS int, factor float64) []*Curve {
	var out []*Curve
	for _, c := range curves {
		r, ok := c.At(maxCS)
		if !ok {
			out = append(out, c)
			continue
		}
		_, best := c.Best()
		if r > best*factor {
			out = append(out, c)
		}
	}
	return out
}
