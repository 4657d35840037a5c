package experiment

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

func smallTrace() *model.Trace {
	b := model.NewBuilder("test/small", 6)
	for round := 0; round < 30; round++ {
		for p := 0; p < 6; p++ {
			b.Message(model.ProcessID(p), model.ProcessID((p+1)%6))
		}
	}
	return b.Trace()
}

func TestRunPointAllStrategies(t *testing.T) {
	tc := NewTraceContext(smallTrace())
	for _, strat := range []string{
		StratFM, StratMerge1st, StratMergeNth5, StratMergeNth10,
		StratStatic, StratContiguous, StratKMedoid, StratKMeans,
	} {
		pt, err := runPoint(tc, strat, 3, metrics.DefaultFixedVector, nil)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if pt.Ratio < 0 || pt.Ratio > 1 {
			t.Fatalf("%s: ratio %f out of range", strat, pt.Ratio)
		}
		if strat == StratFM && pt.Ratio != 1 {
			t.Fatalf("FM ratio = %f, want 1", pt.Ratio)
		}
		if pt.MaxCS != 3 {
			t.Fatalf("%s: MaxCS = %d", strat, pt.MaxCS)
		}
	}
	if _, err := runPoint(tc, "no-such-strategy", 3, 300, nil); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestRunPointUnboundedAblationChargesLargestCluster(t *testing.T) {
	// A hub graph forces k-medoid to build one large cluster; the charged
	// cluster vector must be at least that cluster's size, not maxCS.
	b := model.NewBuilder("test/hub", 20)
	for round := 0; round < 10; round++ {
		for p := 1; p < 20; p++ {
			b.Message(0, model.ProcessID(p))
			b.Message(model.ProcessID(p), 0)
		}
	}
	tc := NewTraceContext(b.Trace())
	pt, err := runPoint(tc, StratKMedoid, 4, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ClusterVector <= 4 {
		t.Fatalf("ClusterVector = %d, expected above maxCS for lopsided clustering", pt.ClusterVector)
	}
}

func TestSweepProducesValidCurve(t *testing.T) {
	tc := NewTraceContext(smallTrace())
	sizes := []int{2, 3, 5, 8}
	c, err := Sweep(tc, StratMerge1st, sizes, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(sizes) || c.Computation != "test/small" || c.Strategy != StratMerge1st {
		t.Fatalf("curve metadata wrong: %+v", c)
	}
	if _, err := Sweep(tc, "bogus", sizes, 300); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestTraceContextGraphCached(t *testing.T) {
	tc := NewTraceContext(smallTrace())
	g1 := tc.Graph()
	g2 := tc.Graph()
	if g1 != g2 {
		t.Fatal("graph not cached")
	}
	if g1.NumProcs() != 6 {
		t.Fatalf("graph procs = %d", g1.NumProcs())
	}
}

func TestCorpusSweepSubset(t *testing.T) {
	var specs []workload.Spec
	for _, name := range []string{"pvm/ring-44", "dce/rpc-36"} {
		s, ok := workload.Find(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		specs = append(specs, s)
	}
	curves, err := CorpusSweep(specs, StratMerge1st, []int{4, 13}, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	// Sorted by computation name.
	if curves[0].Computation > curves[1].Computation {
		t.Fatal("curves not sorted")
	}
	// Errors propagate.
	if _, err := CorpusSweep(specs, "bogus", []int{4}, 300, 1); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestFiguresWellFormed(t *testing.T) {
	for _, fig := range []Figure{Figure4(), Figure5()} {
		if len(fig.Panels) != 2 {
			t.Fatalf("%s: %d panels", fig.ID, len(fig.Panels))
		}
		for _, p := range fig.Panels {
			if _, ok := workload.Find(p.Computation); !ok {
				t.Fatalf("%s: unknown computation %q", fig.ID, p.Computation)
			}
			if len(p.Strategies) < 2 {
				t.Fatalf("%s: too few strategies", fig.ID)
			}
		}
	}
}

func TestRunFigureSmallGrid(t *testing.T) {
	fd, err := RunFigure(Figure4(), []int{8, 13}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Panels) != 2 {
		t.Fatalf("panels = %d", len(fd.Panels))
	}
	for _, curves := range fd.Panels {
		if len(curves) != 2 {
			t.Fatalf("curves per panel = %d", len(curves))
		}
		for _, c := range curves {
			if c.Len() != 2 {
				t.Fatalf("curve points = %d", c.Len())
			}
		}
	}
	// Unknown computation errors.
	bad := Figure{ID: "x", Panels: []Panel{{Computation: "no/such", Strategies: []string{StratFM}}}}
	if _, err := RunFigure(bad, []int{8}, 300); err == nil {
		t.Fatal("unknown computation accepted")
	}
}

func TestAnalyses(t *testing.T) {
	mk := func(comp string, ratios map[int]float64) *metrics.Curve {
		c := &metrics.Curve{Computation: comp, Strategy: "s"}
		for _, s := range []int{10, 11, 12, 13} {
			c.MaxCS = append(c.MaxCS, s)
			c.Ratio = append(c.Ratio, ratios[s])
		}
		return c
	}
	a := mk("a", map[int]float64{10: 0.30, 11: 0.20, 12: 0.21, 13: 0.22})
	b := mk("b", map[int]float64{10: 0.40, 11: 0.21, 12: 0.20, 13: 0.50})

	sa := AnalyzeStatic([]*metrics.Curve{a, b})
	if !sa.Window1OK {
		t.Fatal("no static window found")
	}
	if len(sa.IdealSizes) == 0 || sa.IdealSizes[0] != 11 {
		t.Fatalf("IdealSizes = %v", sa.IdealSizes)
	}
	if s := FormatStatic(sa); !strings.Contains(s, "T1") || !strings.Contains(s, "T2") {
		t.Fatalf("FormatStatic = %q", s)
	}

	ma := AnalyzeMerge1st([]*metrics.Curve{a, b})
	if ma.BestCoverage <= 0 {
		t.Fatalf("coverage = %f", ma.BestCoverage)
	}
	if s := FormatMerge1st(ma); !strings.Contains(s, "T3") {
		t.Fatalf("FormatMerge1st = %q", s)
	}

	na := AnalyzeNth([]*metrics.Curve{a, b})
	if !na.Window2OK {
		t.Fatal("no nth window")
	}
	if s := FormatNth(na); !strings.Contains(s, "T4") {
		t.Fatalf("FormatNth = %q", s)
	}
	// Violators listed when a curve exceeds the bar inside the window.
	if len(na.Violators) == 0 {
		// With <=2 violations allowed and only 2 curves this window may
		// legitimately include violating sizes.
		t.Logf("no violators in window %v", na.Window2)
	}
	// Empty input degrades gracefully.
	if na := AnalyzeNth(nil); na.Window2OK {
		t.Fatal("empty nth analysis found a window")
	}
	if s := FormatNth(AnalyzeNth(nil)); !strings.Contains(s, "no maxCS window") {
		t.Fatalf("FormatNth(empty) = %q", s)
	}

	ab := AnalyzeAblation("x", []*metrics.Curve{a}, []*metrics.Curve{b, a})
	if ab.Computations != 1 {
		t.Fatalf("ablation compared %d", ab.Computations)
	}
	if s := FormatAblation(ab); !strings.Contains(s, "x") {
		t.Fatalf("FormatAblation = %q", s)
	}
	// Mismatched names are skipped.
	ab2 := AnalyzeAblation("x", []*metrics.Curve{mk("zz", map[int]float64{10: 1, 11: 1, 12: 1, 13: 1})}, []*metrics.Curve{a})
	if ab2.Computations != 0 {
		t.Fatalf("phantom comparison: %d", ab2.Computations)
	}
}

func TestDefaultSizes(t *testing.T) {
	sizes := DefaultSizes()
	if len(sizes) != 49 || sizes[0] != 2 || sizes[len(sizes)-1] != 50 {
		t.Fatalf("DefaultSizes = %v", sizes)
	}
}

func TestCompareRelated(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-44")
	if !ok {
		t.Fatal("spec missing")
	}
	tc := NewTraceContext(spec.Generate())
	r, err := CompareRelated(tc, 13, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.FMInts != 300 {
		t.Fatalf("FMInts = %f", r.FMInts)
	}
	if r.ClusterInts <= 0 || r.ClusterInts >= 300 {
		t.Fatalf("ClusterInts = %f", r.ClusterInts)
	}
	if r.DifferentialInts <= 0 || r.DirectDepInts <= 0 || r.CachedInts <= 0 {
		t.Fatalf("missing encodings: %+v", r)
	}
	if r.DirectDepSearch <= 0 || r.CachedReplay <= 0 {
		t.Fatalf("missing query costs: %+v", r)
	}
	if s := FormatRelated(r); s == "" {
		t.Fatal("empty format")
	}
}

func TestCompareHierarchy(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-128")
	if !ok {
		t.Fatal("spec missing")
	}
	tc := NewTraceContext(spec.Generate())
	r, err := CompareHierarchy(tc, 8, 40, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.TwoLevelInts <= 0 || r.ThreeLevelInts <= 0 {
		t.Fatalf("missing results: %+v", r)
	}
	// The third level must help on a 128-process ring (level-1 cluster
	// receives become 40-int projections instead of 300-int vectors).
	if r.ThreeLevelInts >= r.TwoLevelInts {
		t.Fatalf("three-level (%.1f) not better than two-level (%.1f)", r.ThreeLevelInts, r.TwoLevelInts)
	}
	if r.ThreeLevelFull >= r.TwoLevelFull {
		t.Fatalf("full vectors did not drop: %d vs %d", r.ThreeLevelFull, r.TwoLevelFull)
	}
	if r.MidLevelEvents == 0 {
		t.Fatal("no mid-level stamps")
	}
	if s := FormatHierarchy(r); s == "" {
		t.Fatal("empty format")
	}

	// The EXPERIMENTS.md H1 rows, sizes {13} vs {13, 60}: full vectors under
	// one explicit level, then full / mid-level under two.
	for _, row := range []struct {
		name               string
		twoFull, full, mid int
	}{
		{"pvm/ring-300", 975, 240, 735},
		{"pvm/stencil2d-300", 2780, 780, 2000},
		{"java/webtier-300", 2296, 1832, 464},
		{"dce/rpc-288", 484, 260, 224},
	} {
		spec, ok := workload.Find(row.name)
		if !ok {
			t.Fatalf("%s: spec missing", row.name)
		}
		r, err := CompareHierarchy(NewTraceContext(spec.Generate()), 13, 60, metrics.DefaultFixedVector)
		if err != nil {
			t.Fatal(err)
		}
		if r.TwoLevelFull != row.twoFull || r.ThreeLevelFull != row.full || r.MidLevelEvents != row.mid {
			t.Errorf("%s: %d -> %d full / %d mid, want %d -> %d / %d", row.name,
				r.TwoLevelFull, r.ThreeLevelFull, r.MidLevelEvents, row.twoFull, row.full, row.mid)
		}
	}
}
