package workload

import (
	"math/rand"
	"testing"

	"repro/internal/commgraph"
	"repro/internal/model"
)

func TestCorpusSizeAndComposition(t *testing.T) {
	specs := Corpus()
	if len(specs) < 50 {
		t.Fatalf("corpus has %d computations, paper evaluated more than 50", len(specs))
	}
	byEnv := map[Env]int{}
	names := map[string]bool{}
	max := 0
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate corpus name %q", s.Name)
		}
		names[s.Name] = true
		byEnv[s.Env]++
		if s.Procs > max {
			max = s.Procs
		}
		if s.Procs > 300 {
			t.Fatalf("%s has %d processes, corpus cap is 300", s.Name, s.Procs)
		}
	}
	for _, env := range []Env{EnvPVM, EnvJava, EnvDCE} {
		if byEnv[env] < 3 {
			t.Fatalf("environment %s underrepresented: %d", env, byEnv[env])
		}
	}
	if max != 300 {
		t.Fatalf("corpus max processes = %d, want 300", max)
	}
}

func TestCorpusTracesValid(t *testing.T) {
	for _, s := range Corpus() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if err := validateSpec(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCorpusDeterministic(t *testing.T) {
	// Sample a few computations and regenerate them.
	for _, name := range []string{"pvm/cowichan-48", "java/webtier-124", "dce/rpc-72"} {
		s, ok := Find(name)
		if !ok {
			t.Fatalf("spec %q not found", name)
		}
		a, b := s.Generate(), s.Generate()
		if a.NumEvents() != b.NumEvents() {
			t.Fatalf("%s: nondeterministic event count", name)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("%s: nondeterministic event %d", name, i)
			}
		}
		if a.Name != name {
			t.Fatalf("Generate did not stamp name: %q", a.Name)
		}
	}
}

func TestFindAndNames(t *testing.T) {
	if _, ok := Find("no/such-computation"); ok {
		t.Fatalf("Find invented a spec")
	}
	name := Corpus()[0].Name
	if _, ok := Find(name); !ok {
		t.Fatalf("Find missed %q", name)
	}
}

func TestRingLocality(t *testing.T) {
	tr := Ring(16, 5, false)
	g := commgraph.FromTrace(tr)
	// Every process talks only to its ring successor/predecessor.
	for p := int32(0); p < 16; p++ {
		if d := g.Degree(p); d != 2 {
			t.Fatalf("ring degree(%d) = %d, want 2", p, d)
		}
	}
	if f := g.LocalityFraction(2); f < 0.99 {
		t.Fatalf("ring locality = %f", f)
	}
	// Bidirectional variant doubles the per-edge traffic, not the degree.
	bi := Ring(16, 5, true)
	gbi := commgraph.FromTrace(bi)
	if gbi.Degree(0) != 2 {
		t.Fatalf("bi-ring degree = %d", gbi.Degree(0))
	}
	if gbi.Count(0, 1) <= g.Count(0, 1) {
		t.Fatalf("bi-ring did not increase traffic")
	}
}

func TestStencilStructure(t *testing.T) {
	tr := Stencil2D(3, 4, 2)
	if tr.NumProcs != 12 {
		t.Fatalf("procs = %d", tr.NumProcs)
	}
	g := commgraph.FromTrace(tr)
	// Corner has 2 neighbours, edge 3, interior 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(1) != 3 {
		t.Fatalf("edge degree = %d", g.Degree(1))
	}
	if g.Degree(5) != 4 {
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
}

func TestTreeReduceStructure(t *testing.T) {
	tr := TreeReduce(7, 2)
	g := commgraph.FromTrace(tr)
	// Root talks to its two children only.
	if g.Degree(0) != 2 {
		t.Fatalf("root degree = %d", g.Degree(0))
	}
	// Leaves talk to their parent only.
	for _, leaf := range []int32{3, 4, 5, 6} {
		if g.Degree(leaf) != 1 {
			t.Fatalf("leaf %d degree = %d", leaf, g.Degree(leaf))
		}
	}
}

func TestPipelineStructure(t *testing.T) {
	tr := Pipeline(5, 3)
	g := commgraph.FromTrace(tr)
	if g.Degree(0) != 1 || g.Degree(4) != 1 || g.Degree(2) != 2 {
		t.Fatalf("pipeline degrees: %d %d %d", g.Degree(0), g.Degree(4), g.Degree(2))
	}
	// All messages flow forward: count(p,p+1) is items times the stage's
	// weight (2..4 per ringWeights).
	for p := int32(0); p < 4; p++ {
		c := g.Count(p, p+1)
		if c < 3*2 || c > 3*4 {
			t.Fatalf("count(%d,%d) = %d, want within [6,12]", p, p+1, c)
		}
	}
}

func TestWavefrontIsValidLinearExtension(t *testing.T) {
	tr := wavefront(4, 5, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumProcs != 20 {
		t.Fatalf("procs = %d", tr.NumProcs)
	}
}

func TestButterflyLongRangeEdges(t *testing.T) {
	tr := Butterfly(16, 2)
	g := commgraph.FromTrace(tr)
	// Dimension 3 partner: 0 <-> 8 must communicate.
	if g.Count(0, 8) == 0 {
		t.Fatalf("no long-range butterfly edge")
	}
	if g.Count(0, 1) == 0 {
		t.Fatalf("no short-range butterfly edge")
	}
}

func TestSyncHeavyGeneratorsContainSyncs(t *testing.T) {
	for _, tr := range []*model.Trace{
		RPCBusiness(8, 4, 2, 50, 0.1, 1),
		replicatedDirectory(4, 8, 50, 0.25, 2),
	} {
		st := tr.Stats()
		if st.SyncPairs == 0 {
			t.Fatalf("DCE-style trace has no synchronous pairs")
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWebTierAffinity(t *testing.T) {
	tr := WebTier(8, 4, 4, 2, 300, 7)
	g := commgraph.FromTrace(tr)
	// Each client talks to exactly one frontend (session affinity, via
	// the varied assignment).
	for c := int32(0); c < 8; c++ {
		if g.Degree(c) != 1 {
			t.Fatalf("client %d degree = %d, want 1", c, g.Degree(c))
		}
		fe := int32(8 + assignVaried(int(c), 8, 4))
		if g.Count(c, fe) == 0 {
			t.Fatalf("client %d does not talk to its frontend %d", c, fe)
		}
	}
}

func TestThreadPoolNoAffinity(t *testing.T) {
	tr := threadPool(4, 8, 600, 9)
	g := commgraph.FromTrace(tr)
	// With 600 requests over 4 workers, every client should have touched
	// several workers: degree of a client > 1 (queue + >=1 workers... the
	// client talks to the queue and to workers that replied).
	multi := 0
	for c := int32(5); c < 13; c++ {
		if g.Degree(c) > 2 {
			multi++
		}
	}
	if multi < 4 {
		t.Fatalf("thread pool shows unexpected affinity: %d clients with >2 partners", multi)
	}
}

func TestRandomGenerators(t *testing.T) {
	tr := RandomSparse(20, 2, 500, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr2 := RandomUniform(20, 500, 5)
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := commgraph.FromTrace(tr2)
	// Uniform traffic touches many partners.
	if g2.Degree(0) < 3 {
		t.Fatalf("uniform trace unexpectedly local: degree %d", g2.Degree(0))
	}
}

func TestPick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[pick(r, []float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("pick weights ignored: %v", counts)
	}
	if pick(r, []float64{1}) != 0 {
		t.Fatalf("single-weight pick wrong")
	}
}

func TestCorpusEventVolume(t *testing.T) {
	var total int
	for _, s := range Corpus() {
		tr := s.Generate()
		ev := tr.NumEvents()
		if ev < 500 {
			t.Errorf("%s: only %d events — too small to be representative", s.Name, ev)
		}
		if ev > 60000 {
			t.Errorf("%s: %d events — larger than the sweep budget intends", s.Name, ev)
		}
		total += ev
	}
	if total < 100000 {
		t.Fatalf("corpus total %d events — too small", total)
	}
}
