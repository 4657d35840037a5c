package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/workload"
)

// scale selects the input size: full is what BENCHMARK.json measures, tiny
// (≈5k events) is what the smoke test runs against an in-process server.
type scale int

const (
	scaleFull scale = iota
	scaleTiny
)

// workloadSpec is one traffic mix. Every workload runs the same phases (see
// pass.go), so every end-to-end metric exists on every workload; they differ
// in the computation that is monitored, the frame size, the arrival order and
// the daemon's pipeline shape.
type workloadSpec struct {
	name string
	why  string
	// gen builds the monitored computation from the seed.
	gen func(seed int64, sc scale) *model.Trace
	// batch is the number of events per EVENTS frame.
	batch int
	// lagged delivers events with a seeded per-process lag instead of trace
	// order, so receives and sync halves reach the collector before their
	// partners and have to be held.
	lagged bool
	// daemonFlags are appended to the common poetd flags.
	daemonFlags []string
	// shards and planQueue mirror daemonFlags for the in-process rungs.
	shards, planQueue int
	// pacedRate is the open-loop rate of the paced phase, in events/s.
	pacedRate float64
	// pacedShare is the share of the stream sent in the paced phase.
	pacedShare float64
	// readHeavy runs the query connection in closed loop during the paced
	// phase (every 16th batch a QUERY@ at half the durable count) instead of
	// one batch per 5 ms.
	readHeavy bool
}

// The sizes are chosen so one pass (fresh daemon → paced → saturate → query →
// time travel → SIGKILL → recovery) takes about 2.5 s on two cores, which
// lets a 15 s run hold five measured passes.
var workloads = []workloadSpec{
	{
		name: "spmd-stream",
		why:  "Paper's home regime: local ring traffic, few cluster receives, 1024-event frames; wire, collector, WAL and planner share the cost. Headline number.",
		gen: func(_ int64, sc scale) *model.Trace {
			return workload.Ring(pick(sc, 300, 40), pick(sc, 330, 20), false)
		},
		batch: 1024, pacedRate: 300e3, pacedShare: 0.3,
	},
	{
		name: "spmd-stream-1lane",
		why:  "Same job, single-writer daemon (-ingest-shards 1 -plan-queue -1): bypasses lanes, rendezvous and plan queue, so a sharding change must leave it flat.",
		gen: func(_ int64, sc scale) *model.Trace {
			return workload.Ring(pick(sc, 300, 40), pick(sc, 330, 20), false)
		},
		batch: 1024, pacedRate: 300e3, pacedShare: 0.3,
		daemonFlags: []string{"-ingest-shards", "1", "-plan-queue", "-1"},
		shards:      1, planQueue: -1,
	},
	{
		name: "scattered-stream",
		why:  "No locality: nearly every receive is a cluster receive with a full vector and merges saturate; planner, lane vector math, column store and memory dominate.",
		gen: func(seed int64, sc scale) *model.Trace {
			return workload.RandomUniform(pick(sc, 280, 40), pick(sc, 150000, 2500), seed)
		},
		batch: 1024, pacedRate: 120e3, pacedShare: 0.3,
	},
	{
		name: "rpc-fanin",
		why:  "Sync RPC in 32-event frames with lagged arrival: 32x more frames, runs and WAL records per event plus collector hold/drain; wire, collector and WAL per-run cost dominate.",
		gen: func(seed int64, sc scale) *model.Trace {
			return workload.RPCBusiness(pick(sc, 240, 30), pick(sc, 24, 5), pick(sc, 24, 5), pick(sc, 22000, 450), 0.05, seed)
		},
		batch: 32, lagged: true, pacedRate: 80e3, pacedShare: 0.3,
	},
	{
		name: "web-readheavy",
		why:  "Reads beside writes: closed-loop queries and QUERY@ time travel during paced ingest of a hub-pattern web tier; a query or replay gain that costs ingest shows here.",
		gen: func(seed int64, sc scale) *model.Trace {
			return workload.WebTier(pick(sc, 240, 30), pick(sc, 26, 4), pick(sc, 26, 4), pick(sc, 8, 2), pick(sc, 20000, 400), seed)
		},
		batch: 256, pacedRate: 100e3, pacedShare: 0.6, readHeavy: true,
	},
}

// at returns the spec as run at the given scale. A 5k-event stream in
// 1024-event frames would be five frames, too few for a paced phase with
// probes and queries, so the tiny scale shrinks frames and slows the pacing.
func (w workloadSpec) at(sc scale) workloadSpec {
	if sc == scaleTiny {
		w.batch = max(w.batch/16, 8)
		w.pacedRate /= 20
	}
	return w
}

func pick(sc scale, full, tiny int) int {
	if sc == scaleTiny {
		return tiny
	}
	return full
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
