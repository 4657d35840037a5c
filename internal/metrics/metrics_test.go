package metrics

import (
	"math"
	"testing"
)

func curve(name string, ratios ...float64) *Curve {
	c := &Curve{Computation: name, Strategy: "s"}
	for i, r := range ratios {
		c.MaxCS = append(c.MaxCS, i+2) // sweeps start at 2
		c.Ratio = append(c.Ratio, r)
	}
	return c
}

func TestCurveBasics(t *testing.T) {
	c := curve("a", 0.5, 0.3, 0.4, 0.3)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	maxCS, best := c.Best()
	if maxCS != 3 || best != 0.3 {
		t.Fatalf("Best = %d,%f", maxCS, best)
	}
	if r, ok := c.At(4); !ok || r != 0.4 {
		t.Fatalf("At(4) = %f,%v", r, ok)
	}
	if _, ok := c.At(99); ok {
		t.Fatalf("At(99) found")
	}
	within := c.WithinFactor(1.2)
	// 0.3*1.2 = 0.36: sizes 3 and 5 qualify.
	if len(within) != 2 || within[0] != 3 || within[1] != 5 {
		t.Fatalf("WithinFactor = %v", within)
	}
	if tv := c.TotalVariation(); math.Abs(tv-0.4) > 1e-12 {
		t.Fatalf("TotalVariation = %f", tv)
	}
	if m := c.MaxRatio(); m != 0.5 {
		t.Fatalf("MaxRatio = %f", m)
	}
}

func TestCurveBestEmpty(t *testing.T) {
	c := &Curve{}
	if _, r := c.Best(); !math.IsNaN(r) {
		t.Fatalf("empty Best = %f", r)
	}
}

func TestCurveValidateErrors(t *testing.T) {
	bad1 := &Curve{MaxCS: []int{2, 3}, Ratio: []float64{0.1}}
	if bad1.Validate() == nil {
		t.Fatal("length mismatch accepted")
	}
	bad2 := &Curve{MaxCS: []int{3, 2}, Ratio: []float64{0.1, 0.2}}
	if bad2.Validate() == nil {
		t.Fatal("descending accepted")
	}
	bad3 := &Curve{MaxCS: []int{2}, Ratio: []float64{math.NaN()}}
	if bad3.Validate() == nil {
		t.Fatal("NaN accepted")
	}
	bad4 := &Curve{MaxCS: []int{2}, Ratio: []float64{-0.1}}
	if bad4.Validate() == nil {
		t.Fatal("negative accepted")
	}
}

func TestViolationCounts(t *testing.T) {
	// a: best 0.3 at size 3; within-20% bar 0.36.
	a := curve("a", 0.5, 0.3, 0.35, 0.40)
	// b: best 0.2 at size 5; bar 0.24.
	b := curve("b", 0.25, 0.22, 0.30, 0.20)
	vc := ViolationCounts([]*Curve{a, b}, 1.2)
	want := map[int]int{
		2: 2, // a:0.5 > .36, b:0.25 > .24
		3: 0, // a ok, b 0.22 <= .24
		4: 1, // a 0.35 ok, b 0.30 violates
		5: 1, // a 0.40 violates, b best
	}
	for s, w := range want {
		if vc[s] != w {
			t.Fatalf("violations[%d] = %d, want %d (all %v)", s, vc[s], w, vc)
		}
	}
}

func TestBestWindow(t *testing.T) {
	a := curve("a", 0.5, 0.3, 0.35, 0.40)
	b := curve("b", 0.25, 0.22, 0.30, 0.20)
	w, ok := BestWindow([]*Curve{a, b}, 1.2, 0)
	if !ok || w.Lo != 3 || w.Hi != 3 {
		t.Fatalf("BestWindow(0) = %v,%v", w, ok)
	}
	w, ok = BestWindow([]*Curve{a, b}, 1.2, 1)
	if !ok || w.Lo != 3 || w.Hi != 5 {
		t.Fatalf("BestWindow(1) = %v,%v", w, ok)
	}
	if w.Width() != 3 {
		t.Fatalf("Width = %d", w.Width())
	}
	if w.String() != "[3,5]" {
		t.Fatalf("String = %q", w.String())
	}
	if _, ok := BestWindow(nil, 1.2, 0); ok {
		t.Fatalf("empty BestWindow found a window")
	}
	// No qualifying point.
	c := curve("c", 1.0, 0.1, 1.0, 1.0)
	d := curve("d", 0.1, 1.0, 1.0, 1.0)
	if _, ok := BestWindow([]*Curve{c, d}, 1.2, 0); ok {
		t.Fatalf("found window where none exists")
	}
}

func TestCoverage(t *testing.T) {
	a := curve("a", 0.5, 0.3, 0.35, 0.40)
	b := curve("b", 0.25, 0.22, 0.30, 0.20)
	if c := coverageAt([]*Curve{a, b}, 3, 1.2); c != 1.0 {
		t.Fatalf("coverageAt(3) = %f", c)
	}
	if c := coverageAt([]*Curve{a, b}, 2, 1.2); c != 0.0 {
		t.Fatalf("coverageAt(2) = %f", c)
	}
	if c := coverageAt([]*Curve{a, b}, 4, 1.2); c != 0.5 {
		t.Fatalf("coverageAt(4) = %f", c)
	}
	maxCS, cov := MaxCoverage([]*Curve{a, b}, 1.2)
	if maxCS != 3 || cov != 1.0 {
		t.Fatalf("MaxCoverage = %d,%f", maxCS, cov)
	}
	if c := coverageAt(nil, 3, 1.2); c != 0 {
		t.Fatalf("nil coverage = %f", c)
	}
	if _, cov := MaxCoverage(nil, 1.2); cov != 0 {
		t.Fatalf("nil MaxCoverage = %f", cov)
	}
	// Missing sweep point counts as uncovered.
	short := &Curve{Computation: "s", MaxCS: []int{2}, Ratio: []float64{0.1}}
	if c := coverageAt([]*Curve{a, short}, 3, 1.2); c != 0.5 {
		t.Fatalf("short-curve coverage = %f", c)
	}
}

func TestViolators(t *testing.T) {
	a := curve("a", 0.5, 0.3, 0.35, 0.40)
	b := curve("b", 0.25, 0.22, 0.30, 0.20)
	v := Violators([]*Curve{a, b}, 5, 1.2)
	if len(v) != 1 || v[0].Computation != "a" {
		t.Fatalf("Violators = %v", v)
	}
	short := &Curve{Computation: "s", MaxCS: []int{2}, Ratio: []float64{0.1}}
	v = Violators([]*Curve{short}, 5, 1.2)
	if len(v) != 1 {
		t.Fatalf("missing point not reported as violator")
	}
}
