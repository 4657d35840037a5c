package hct

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// pipelineConfig builds the strategy rotation used across the differential
// battery (mirroring columnar_test.go): deciders are stateful, so each
// engine instance gets a fresh one, and static partitions are fresh per
// engine because the engine mutates the partition it is handed.
func pipelineConfig(t *testing.T, tr *model.Trace, variant, maxCS int) Config {
	t.Helper()
	cfg := Config{MaxClusterSize: maxCS}
	switch variant % 3 {
	case 0:
		cfg.Decider = strategy.NewMergeOnFirst()
	case 1:
		cfg.Decider = strategy.NewMergeOnNth(5)
	default:
		groups := strategy.StaticGreedy(commgraph.FromTrace(tr), maxCS)
		part, err := cluster.NewFromGroups(tr.NumProcs, groups)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Partition = part
	}
	return cfg
}

// sameTimestamp reports whether two timestamps are identical down to the
// cluster-epoch identity and every vector element.
func sameTimestamp(a, b Timestamp) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Partner == b.Partner &&
		((a.Cluster == nil) == (b.Cluster == nil)) &&
		(a.Cluster == nil || (a.Cluster.ID == b.Cluster.ID &&
			vclock.Clock(a.Cluster.Members).Equal(vclock.Clock(b.Cluster.Members)))) &&
		vclock.Clock(a.Proj).Equal(vclock.Clock(b.Proj)) &&
		a.Full.Equal(b.Full)
}

// TestShardedPipelineDifferentialCorpus is the sharding correctness bar: for
// every corpus computation and every shard count in {2, 4, 8}, the sharded
// pipeline must produce timestamps identical to the inline one-lane pipeline
// (the Timestamper façade, itself held to the Fidge/Mattern oracle vector
// for vector by TestColumnarDifferentialCorpus) — same cluster epochs, same
// projections, same retained full vectors — and answer the precedence matrix
// identically (full matrix on small computations, dense samples on large
// ones).
func TestShardedPipelineDifferentialCorpus(t *testing.T) {
	specs := workload.Corpus()
	shardCounts := []int{2, 4, 8}
	maxCSs := []int{2, 13, 50}
	if testing.Short() {
		shardCounts = []int{4}
		maxCSs = []int{13}
	}
	for i, spec := range specs {
		if testing.Short() && i%5 != 0 {
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			r := rand.New(rand.NewSource(0x5AD + int64(i)))
			for _, maxCS := range maxCSs {
				// One-lane reference.
				ref, err := NewTimestamper(tr.NumProcs, pipelineConfig(t, tr, i, maxCS))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.ObserveAll(tr); err != nil {
					t.Fatalf("maxCS=%d: reference: %v", maxCS, err)
				}

				for _, shards := range shardCounts {
					pipe, err := NewPipeline(tr.NumProcs, pipelineConfig(t, tr, i, maxCS), PipelineOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if err := pipe.Dispatch(tr.Events); err != nil {
						pipe.Close()
						t.Fatalf("maxCS=%d shards=%d: Dispatch: %v", maxCS, shards, err)
					}
					pipe.Barrier()

					if pipe.Events() != ref.Events() || pipe.ClusterReceives() != ref.ClusterReceives() ||
						pipe.MergedClusterReceives() != ref.MergedClusterReceives() ||
						pipe.Merges() != ref.Merges() {
						pipe.Close()
						t.Fatalf("maxCS=%d shards=%d: accounting (%d,%d,%d,%d) != reference (%d,%d,%d,%d)",
							maxCS, shards,
							pipe.Events(), pipe.ClusterReceives(), pipe.MergedClusterReceives(), pipe.Merges(),
							ref.Events(), ref.ClusterReceives(), ref.MergedClusterReceives(), ref.Merges())
					}

					for _, e := range tr.Events {
						want, ok := ref.Timestamp(e.ID)
						if !ok {
							t.Fatalf("reference lost %v", e.ID)
						}
						got, ok := pipe.Timestamp(e.ID)
						if !ok {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Timestamp(%v) missing after Barrier", maxCS, shards, e.ID)
						}
						if !sameTimestamp(got, want) {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Timestamp(%v) = %v, one-lane %v",
								maxCS, shards, e.ID, got, want)
						}
					}

					check := func(e, f model.EventID) {
						want, err := ref.Precedes(e, f)
						if err != nil {
							t.Fatalf("reference Precedes(%v,%v): %v", e, f, err)
						}
						got, err := pipe.Precedes(e, f)
						if err != nil {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Precedes(%v,%v): %v", maxCS, shards, e, f, err)
						}
						if got != want {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Precedes(%v,%v) = %v, one-lane %v",
								maxCS, shards, e, f, got, want)
						}
					}
					if len(tr.Events) <= 120 {
						for a := range tr.Events {
							for b := range tr.Events {
								check(tr.Events[a].ID, tr.Events[b].ID)
							}
						}
					} else {
						samples := 2000
						if testing.Short() {
							samples = 400
						}
						for k := 0; k < samples; k++ {
							check(tr.Events[r.Intn(len(tr.Events))].ID, tr.Events[r.Intn(len(tr.Events))].ID)
						}
					}
					pipe.Close()
				}
			}
		})
	}
}

// TestPipelineErrorContract pins the planner's error behavior at every shard
// count: the delivery sentinels, and fm.ObserveBorrowed's "on error no state
// changes" — events before a failure stay delivered, and a rejected event
// leaves the frontier, the in-flight sends and the held sync half untouched,
// so the very same event is accepted once the stream allows it.
func TestPipelineErrorContract(t *testing.T) {
	mk := func(shards int) *Pipeline {
		p, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
			PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ev := func(p, i int, k model.Kind, pp, pi int) model.Event {
		e := model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: k}
		if pp >= 0 {
			e.Partner = model.EventID{Process: model.ProcessID(pp), Index: model.EventIndex(pi)}
		}
		return e
	}
	for _, shards := range []int{1, 2, 4} {
		pipe := mk(shards)
		reject := func(what string, e model.Event, want error) {
			t.Helper()
			if err := pipe.DispatchOne(e); !errors.Is(err, want) {
				t.Fatalf("shards=%d: %s: err = %v, want %v", shards, what, err, want)
			}
		}
		accept := func(what string, e model.Event) {
			t.Helper()
			if err := pipe.DispatchOne(e); err != nil {
				t.Fatalf("shards=%d: %s rejected: %v", shards, what, err)
			}
		}

		reject("out-of-range process", ev(9, 1, model.Unary, -1, 0), model.ErrDeliverProcOutOfRange)
		reject("index gap", ev(0, 2, model.Unary, -1, 0), model.ErrDeliverBadIndex)
		reject("receive of unknown send", ev(0, 1, model.Receive, 1, 1), model.ErrDeliverUnknownSend)
		accept("valid event", ev(0, 1, model.Unary, -1, 0))
		reject("duplicate", ev(0, 1, model.Unary, -1, 0), model.ErrDeliverDuplicate)

		// A send, then the first half of a sync pair. The receive
		// interleaved into the pair is rejected without consuming its send
		// or its frontier slot; a mismatched second half is rejected without
		// releasing the held one.
		accept("send", ev(3, 1, model.Send, 0, 2))
		accept("first sync half", ev(1, 1, model.Sync, 2, 1))
		for attempt := 0; attempt < 2; attempt++ {
			reject("receive inside sync pair", ev(0, 2, model.Receive, 3, 1), fm.ErrSyncInterleaved)
			if n := pipe.PendingSends(); n != 1 {
				t.Fatalf("shards=%d: rejected receive consumed its send: PendingSends = %d", shards, n)
			}
		}
		reject("mismatched sync half", ev(2, 1, model.Sync, 3, 2), fm.ErrSyncPartner)
		if next := pipe.FrontierNext(); next[0] != 2 || next[2] != 1 {
			t.Fatalf("shards=%d: rejected events advanced the frontier: %v", shards, next)
		}
		accept("partner sync half", ev(2, 1, model.Sync, 1, 1))
		if n := pipe.PendingSends(); n != 1 {
			t.Fatalf("shards=%d: PendingSends = %d before the receive, want 1", shards, n)
		}
		accept("the once-rejected receive", ev(0, 2, model.Receive, 3, 1))
		if n := pipe.PendingSends(); n != 0 {
			t.Fatalf("shards=%d: PendingSends = %d after the receive, want 0", shards, n)
		}
		pipe.Barrier()
		for _, id := range []model.EventID{{Process: 1, Index: 1}, {Process: 2, Index: 1}, {Process: 0, Index: 2}} {
			if _, ok := pipe.Timestamp(id); !ok {
				t.Fatalf("shards=%d: accepted event %v not published", shards, id)
			}
		}
		if got := pipe.Events(); got != 5 {
			t.Fatalf("shards=%d: Events() = %d, want 5", shards, got)
		}
		pipe.Close()
		if err := pipe.DispatchOne(ev(0, 3, model.Unary, -1, 0)); err != ErrPipelineClosed {
			t.Fatalf("shards=%d: Dispatch after Close = %v", shards, err)
		}
	}
}
