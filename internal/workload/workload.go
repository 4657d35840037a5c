// Package workload generates the synthetic computation corpus standing in
// for the paper's proprietary trace data (>50 parallel and distributed
// computations over PVM, Java and DCE environments, with up to 300 processes
// each — Section 4).
//
// The cluster-timestamp results depend only on the communication topology of
// the event traces: who talks to whom, how often, with what locality, and
// whether communication is asynchronous or synchronous. The generator
// families below each reproduce one of the communication regimes the paper
// describes:
//
//   - PVM programs were SPMD-style parallel computations (including the
//     Cowichan benchmarks) with close-neighbour and scatter-gather
//     patterns: Ring, Stencil2D, hierScatterGather, TreeReduce, Pipeline,
//     wavefront, Butterfly, cowichanPhases.
//   - Java programs were web-like applications (web-server executions):
//     WebTier, sessionServer, threadPool.
//   - DCE programs were sample business applications built on synchronous
//     RPC: RPCBusiness.
//
// All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Env labels the environment family a computation imitates.
type Env string

// The three environments of the paper's corpus.
const (
	EnvPVM  Env = "pvm"
	EnvJava Env = "java"
	EnvDCE  Env = "dce"
)

// Spec describes one corpus computation.
type Spec struct {
	// Name is the corpus-unique identifier, e.g. "pvm/stencil2d-256".
	Name string
	// Env is the environment family.
	Env Env
	// Procs is the number of processes the computation uses.
	Procs int
	// Build generates the trace. Implementations are deterministic.
	Build func() *model.Trace
}

// Generate builds the trace and stamps it with the spec name.
func (s Spec) Generate() *model.Trace {
	tr := s.Build()
	tr.Name = s.Name
	return tr
}

// rng returns the deterministic random stream for a named computation.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pick returns a uniformly random element index weighted by w (w must be
// non-empty with positive total).
func pick(r *rand.Rand, w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	t := r.Float64() * total
	for i, x := range w {
		t -= x
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}

// assignVaried maps item c of `items` onto one of `buckets` buckets whose
// sizes vary deterministically around the mean (roughly ±25%). Real
// deployments never balance perfectly — some sessions, accounts or replicas
// serve more clients than others — and the variation matters for the
// clustering evaluation: perfectly equal group sizes produce artificially
// sharp ratio curves.
func assignVaried(c, items, buckets int) int {
	if buckets <= 1 || items <= 0 {
		return 0
	}
	// Deterministic bucket weights in 8..12.
	total := 0
	weight := func(i int) int { return 8 + (i*3)%5 }
	for i := 0; i < buckets; i++ {
		total += weight(i)
	}
	// Map c's position to the cumulative weight scale.
	target := (c % items) * total / items
	cum := 0
	for i := 0; i < buckets; i++ {
		cum += weight(i)
		if target < cum {
			return i
		}
	}
	return buckets - 1
}

// validateSpec panics if a generated trace is malformed; generators call it
// in their tests but corpus users rely on Generate alone for speed.
func validateSpec(s Spec) error {
	tr := s.Generate()
	if tr.NumProcs != s.Procs {
		return fmt.Errorf("workload: %s declares %d procs, trace has %d", s.Name, s.Procs, tr.NumProcs)
	}
	return tr.Validate()
}
