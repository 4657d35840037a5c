package hct

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/wal"
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
	return a.ID == b.ID && a.Kind == b.Kind &&
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
					// The whole trace as one batch: far more than a lane may queue.
					pipe := feedAgainst(t, tr, ref, pipelineConfig(t, tr, i, maxCS), PipelineOptions{Shards: shards}, len(tr.Events))

					check := func(e, f model.EventID) {
						want, err := ref.Precedes(e, f)
						if err != nil {
							t.Fatalf("reference Precedes(%v,%v): %v", e, f, err)
						}
						got, err := pipe.Precedes(e, f)
						if err != nil {
							t.Fatalf("maxCS=%d shards=%d: Precedes(%v,%v): %v", maxCS, shards, e, f, err)
						}
						if got != want {
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
				}
			}
		})
	}
}

// TestPipelineErrorContract pins the admission gate's behavior at every shard
// count and entry point: the delivery sentinels, returned by the call that
// submitted the offending event, and fm.ObserveBorrowed's "on error
// no state changes" — events before a failure stay delivered, and a rejected
// event leaves the frontier, the in-flight sends and the held sync half
// untouched, so the very same event is accepted once the stream allows it.
func TestPipelineErrorContract(t *testing.T) {
	ev := func(p, i int, k model.Kind, pp, pi int) model.Event {
		e := model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: k}
		if pp >= 0 {
			e.Partner = model.EventID{Process: model.ProcessID(pp), Index: model.EventIndex(pi)}
		}
		return e
	}
	entries := []struct {
		name     string
		dispatch func(*Pipeline, model.Event) error
	}{
		{"DispatchOne", func(p *Pipeline, e model.Event) error { return p.DispatchOne(e) }},
		{"DispatchAsync", func(p *Pipeline, e model.Event) error { return p.DispatchAsync([]model.Event{e}, nil) }},
	}
	for _, shards := range []int{1, 2, 4} {
		for _, entry := range entries {
			where := fmt.Sprintf("shards=%d %s", shards, entry.name)
			pipe, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
				PipelineOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			reject := func(what string, e model.Event, want error) {
				t.Helper()
				if err := entry.dispatch(pipe, e); !errors.Is(err, want) {
					t.Fatalf("%s: %s: err = %v, want %v", where, what, err, want)
				}
			}
			accept := func(what string, e model.Event) {
				t.Helper()
				if err := entry.dispatch(pipe, e); err != nil {
					t.Fatalf("%s: %s rejected: %v", where, what, err)
				}
			}
			state := func(what string, pending int, next ...model.EventIndex) {
				t.Helper()
				if n := pipe.PendingSends(); n != pending {
					t.Fatalf("%s: %s: PendingSends = %d, want %d", where, what, n, pending)
				}
				if got := pipe.FrontierNext(); !slices.Equal(got, next) {
					t.Fatalf("%s: %s: frontier = %v, want %v", where, what, got, next)
				}
			}

			reject("out-of-range process", ev(9, 1, model.Unary, -1, 0), model.ErrDeliverProcOutOfRange)
			reject("index gap", ev(0, 2, model.Unary, -1, 0), model.ErrDeliverBadIndex)
			reject("receive of unknown send", ev(0, 1, model.Receive, 1, 1), model.ErrDeliverUnknownSend)

			// The record check: a communication event's partner is present,
			// in range, in another process and not the event itself.
			for _, k := range []model.Kind{model.Send, model.Receive, model.Sync} {
				reject(k.String()+" without partner", ev(0, 1, k, -1, 0), model.ErrDeliverBadPartner)
				reject(k.String()+" with out-of-range partner", ev(0, 1, k, 9, 1), model.ErrDeliverBadPartner)
				reject(k.String()+" with same-process partner", ev(0, 1, k, 0, 2), model.ErrDeliverBadPartner)
			}
			reject("send to itself", ev(0, 1, model.Send, 0, 1), model.ErrDeliverBadPartner)
			reject("self-sync", ev(0, 1, model.Sync, 0, 1), model.ErrDeliverSelfSync)
			state("after the record rejections", 0, 1, 1, 1, 1)

			accept("valid event", ev(0, 1, model.Unary, -1, 0))
			reject("duplicate", ev(0, 1, model.Unary, -1, 0), model.ErrDeliverDuplicate)

			// A send, and a receive that names it although the send targets
			// another event: stamped, that receive would wait in its lane
			// for a clock parked in another.
			accept("send", ev(3, 1, model.Send, 0, 2))
			reject("receive of a send that targets another event", ev(1, 1, model.Receive, 3, 1), model.ErrDeliverReceiveMismatch)
			state("after the mismatched receive", 1, 2, 1, 1, 2)

			// The first half of a sync pair. The receive interleaved into
			// the pair is rejected without consuming its send or its
			// frontier slot; a mismatched second half is rejected without
			// releasing the held one.
			accept("first sync half", ev(1, 1, model.Sync, 2, 1))
			for attempt := 0; attempt < 2; attempt++ {
				reject("receive inside sync pair", ev(0, 2, model.Receive, 3, 1), model.ErrDeliverSyncInterleaved)
				state("after the interleaved receive", 1, 2, 2, 1, 2)
			}
			reject("mismatched sync half", ev(2, 1, model.Sync, 3, 2), model.ErrDeliverSyncPartner)
			state("after the mismatched sync half", 1, 2, 2, 1, 2)
			accept("partner sync half", ev(2, 1, model.Sync, 1, 1))
			state("before the receive", 1, 2, 2, 2, 2)
			accept("the once-rejected receive", ev(0, 2, model.Receive, 3, 1))
			reject("receive of a send already claimed", ev(1, 2, model.Receive, 3, 1), model.ErrDeliverUnknownSend)
			state("after the receive", 0, 3, 2, 2, 2)

			// Everything accepted publishes; nothing admitted can strand a
			// lane, so the barrier returns.
			barriered := make(chan struct{})
			go func() { pipe.Barrier(); close(barriered) }()
			select {
			case <-barriered:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: Barrier did not return: an admitted event cannot be stamped", where)
			}
			for _, id := range []model.EventID{{Process: 1, Index: 1}, {Process: 2, Index: 1}, {Process: 0, Index: 2}} {
				if _, ok := pipe.Timestamp(id); !ok {
					t.Fatalf("%s: accepted event %v not published", where, id)
				}
			}
			if got := pipe.Events(); got != 5 {
				t.Fatalf("%s: Events() = %d, want 5", where, got)
			}
			pipe.Close()
			if err := entry.dispatch(pipe, ev(0, 3, model.Unary, -1, 0)); err != ErrPipelineClosed {
				t.Fatalf("%s: dispatch after Close = %v", where, err)
			}
		}
	}
}

// TestPipelineBatchRejection pins what the batch entry point does with a
// rejection, in both shapes and in the call that submitted the batch: the
// valid prefix stays applied with exact counts, the error names the failing
// event, nothing after it is applied, and the pipeline stays usable — no
// sticky poisoning.
func TestPipelineBatchRejection(t *testing.T) {
	ev := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	for _, shards := range []int{1, 2} {
		pipe, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
			PipelineOptions{Shards: shards, PlanQueue: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Valid prefix of two, then a duplicate, then one more valid event
		// that must NOT be applied (the batch stops at the first failure).
		err = pipe.DispatchAsync([]model.Event{ev(0, 1), ev(1, 1), ev(0, 1), ev(2, 1)}, nil)
		if !errors.Is(err, model.ErrDeliverDuplicate) || !strings.Contains(err.Error(), "at "+fmt.Sprint(ev(0, 1).ID)) {
			t.Fatalf("shards=%d: err = %v, want the duplicate named at %v", shards, err, ev(0, 1).ID)
		}
		pipe.Barrier()
		if pipe.Events() != 2 {
			t.Fatalf("shards=%d: Events() = %d after failed batch, want prefix 2", shards, pipe.Events())
		}
		if _, ok := pipe.Timestamp(ev(2, 1).ID); ok {
			t.Fatalf("shards=%d: event after the failing one was applied", shards)
		}
		if err := pipe.DispatchAsync([]model.Event{ev(2, 1), ev(3, 1)}, nil); err != nil {
			t.Fatalf("shards=%d: pipeline unusable after a rejection: %v", shards, err)
		}
		pipe.Barrier()
		if _, ok := pipe.Timestamp(ev(3, 1).ID); !ok || pipe.Events() != 4 {
			t.Fatalf("shards=%d: post-error batch not ingested (Events() = %d)", shards, pipe.Events())
		}
		pipe.Close()
	}
}

// TestStoreRoom holds the store-limit rule to synthetic tallies — nobody can
// carve 2 GiB in a test: whatever the lanes have published and however many
// admitted events are still on their way to them, the fullest lane can stamp
// all of those and the room the rule grants without reaching arenaLimit, and
// the epoch table can take an epoch from each. The per-event figure the rule
// multiplies by is then held to the arena itself: from every position around
// the first chunk boundaries, no event moves the offset by more — a
// projection over a singleton cluster or over a cluster of every process,
// first as a fresh keyframe and then as one whose offsets outgrow their
// bytes; over every process as a nibble frame, and on the worst path, where
// neither a nibble frame over the anchor nor a byte frame over the keyframe
// fits and it becomes a keyframe; a noted cluster receive likewise, as a
// keyframe, as a sparse delta or nibble frame, which from some positions is
// carved at the first element of a fresh chunk, and on the worst path. Every
// event carves once, nothing for the forms it tested first. Last, the worst
// paths, and a projection that takes the nibble path, run next to
// arenaLimit, in the last chunk below it, from every position at which the
// rule grants the event, and stay short of it.
func TestStoreRoom(t *testing.T) {
	const numProcs = 300
	const frame = 1 + (numProcs+3)/4
	const perEvent = 2 * (frame + 1 + numProcs + frame) // the rule's bound on what one event moves its lane's offset by
	const backlog = maxLaneBacklog + 1024               // a full lane queue and the batch let in behind it
	for _, tc := range []struct {
		name      string
		ends      []uint32
		epochs    int
		unstamped int64
		want      int64
	}{
		{"empty store", []uint32{0, 0}, 1, 0, arenaLimit / perEvent},
		{"empty store, backlog in flight", []uint32{0, 0}, 1, backlog, arenaLimit/perEvent - backlog},
		{"one lane ten events short of its limit", []uint32{1 << 20, arenaLimit - 10*perEvent}, 1, 0, 10},
		{"one lane less than an event short", []uint32{0, arenaLimit - perEvent + 1}, 1, 0, 0},
		{"the backlog could carry a lane past its limit", []uint32{0, arenaLimit - backlog*perEvent}, 1, backlog, 0},
		{"the backlog alone is too much", []uint32{0, arenaLimit - 100*perEvent}, 1, backlog, 100 - backlog},
		{"five epochs left", []uint32{0, 0}, epochLimit - 5, 0, 5},
		{"five epochs left, three events in flight", []uint32{0, 0}, epochLimit - 5, 3, 2},
		{"epoch table full", []uint32{0, 0}, epochLimit, 0, 0},
	} {
		got := roomFor(tc.ends, tc.epochs, tc.unstamped, numProcs)
		if got != tc.want {
			t.Errorf("%s: room for %d more events, want %d", tc.name, got, tc.want)
		}
		if got <= 0 {
			continue
		}
		for _, end := range tc.ends {
			if reach := int64(end) + (tc.unstamped+got)*perEvent; reach > arenaLimit {
				t.Errorf("%s: a lane at %d could reach %d, past the limit %d", tc.name, end, reach, int64(arenaLimit))
			}
		}
		if reach := int64(tc.epochs) + tc.unstamped + got; reach > epochLimit {
			t.Errorf("%s: the epoch table could reach %d entries, past the limit %d", tc.name, reach, epochLimit)
		}
	}

	all := make([]int32, numProcs)
	for q := range all {
		all[q] = int32(q)
	}
	key, delta, nibble := crForm{key: true}, crForm{sparse: true}, crForm{nibble: true, sparse: true}
	cases := []struct {
		name    string
		members []int32  // nil: a noted cluster receive
		steps   []int32  // what each event adds to component 0
		forms   []crForm // a noted cluster receive's, event by event
		proj    []int    // a projection's, event by event
	}{
		{"singleton cluster", all[:1], []int32{256, 256}, nil, []int{projKeyframe, projKeyframe}},
		{"maxCS = numProcs", all, []int32{256, 256}, nil, []int{projKeyframe, projKeyframe}},
		{"maxCS = numProcs, nibble frame", all, []int32{256, 1}, nil, []int{projKeyframe, projNibble}},
		{"maxCS = numProcs, the worst path", all, []int32{256, 16, 1, 256}, nil, []int{projKeyframe, projByte, projNibble, projKeyframe}},
		{"noted cluster receive", nil, []int32{256, 256}, []crForm{key, key}, nil},
		{"noted cluster receive, sparse delta frame", nil, []int32{256, 16}, []crForm{key, delta}, nil},
		{"noted cluster receive, sparse nibble frame", nil, []int32{256, 1}, []crForm{key, nibble}, nil},
		{"noted cluster receive, the worst path", nil, []int32{256, 16, 1, 256}, []crForm{key, delta, nibble, key}, nil},
	}
	// lane is one process's stamping state; stamp adds st to component 0 and
	// stores the event, returning how far the arena's offset moved.
	type lane struct {
		ar    arena
		pk    projKey
		notes crColumn
		clk   []int32
	}
	stamp := func(l *lane, members []int32, st int32) uint32 {
		l.clk[0] += st
		before := l.ar.end()
		if members != nil {
			off := l.ar.project(&l.pk, 1, l.clk, members)
			if got := l.ar.chunks.proj(off).decode(len(members)); !slices.Equal(got, l.clk[:len(members)]) {
				t.Fatalf("a projection over %d members decodes to %v", len(members), got)
			}
		} else {
			appendNote(&l.notes, &l.ar, l.notes.n+1, l.clk)
		}
		return l.ar.end() - before
	}
	for _, tc := range cases {
		worst, atBoundary := uint32(0), 0
		for fill := 0; fill < 2048+2*perEvent; fill++ {
			l := &lane{clk: make([]int32, numProcs)}
			l.ar.carve(fill)
			for _, st := range tc.steps {
				worst = max(worst, stamp(l, tc.members, st))
			}
			st := l.ar.stats
			if tc.members != nil {
				var want StoreStats
				for _, form := range tc.proj {
					switch form {
					case projKeyframe:
						want.ProjKeyframes++
					case projByte:
						want.ProjFrames++
					default:
						want.ProjNibbleFrames++
					}
				}
				if want.VectorBytes = st.VectorBytes; st != want {
					t.Fatalf("%s from offset %d: tallies %+v, want %+v", tc.name, fill, st, want)
				}
				continue
			}
			var want StoreStats
			for i, form := range tc.forms {
				note := l.notes.at(int32(i))
				if got := formOf(note); got != form {
					t.Fatalf("%s from offset %d: note %d stored as %+v, want %+v", tc.name, fill, i+1, got, form)
				}
				switch {
				case form.key:
					want.Keyframes++
				case form.nibble:
					want.NibbleFrames++
				default:
					want.DeltaFrames++
				}
				if form.sparse {
					want.SparseFrames++
				}
			}
			if want.VectorBytes = st.VectorBytes; st != want {
				t.Fatalf("%s from offset %d: tallies %+v, want %+v", tc.name, fill, st, want)
			}
			note := l.notes.last()
			if full := l.ar.chunks.full(note, numProcs, nil); !slices.Equal(full, l.clk) || l.ar.chunks.component(note, 0, numProcs) != l.clk[0] {
				t.Fatalf("%s from offset %d: the last note decodes to %v", tc.name, fill, full)
			}
			if off := note.delta & offMask; !formOf(note).key {
				if formOf(note).nibble {
					off -= anchorElem // the header
				}
				if _, base := chunkOf(off); base == off {
					atBoundary++
				}
			}
		}
		if tc.forms != nil && !tc.forms[len(tc.forms)-1].key && atBoundary == 0 {
			t.Errorf("%s: no frame was carved at the first element of a chunk", tc.name)
		}
		if worst > perEvent {
			t.Errorf("%s: one event moved the arena's offset by %d elements, the rule allows for %d", tc.name, worst, perEvent)
		}
		t.Logf("%s: one event moves the offset by at most %d of the %d elements the rule allows for", tc.name, worst, perEvent)
	}

	// Next to the limit: the last chunk below arenaLimit, the only one
	// allocated, holds each worst path's earlier events; padding then puts the
	// arena where the rule grants the last event, room for one and up to one
	// more, before it is stamped. A carve past the limit would panic in grow.
	k, base := chunkOf(arenaLimit - 1)
	for _, tc := range []struct {
		name    string
		members []int32
		steps   []int32
	}{
		{"maxCS = numProcs", all, cases[1].steps},
		{"maxCS = numProcs, nibble frame", all, cases[2].steps},
		{"maxCS = numProcs, the worst path", all, cases[3].steps},
		{"noted cluster receive", nil, cases[7].steps},
	} {
		for slack := uint32(0); slack < 2*perEvent; slack++ {
			l := &lane{clk: make([]int32, numProcs)}
			l.ar.chunks = make(chunkDir, k+1)
			l.ar.chunks[k] = make([]int32, chunkCap(k))
			l.ar.cur, l.ar.base = l.ar.chunks[k][:0], base
			last := len(tc.steps) - 1
			for _, st := range tc.steps[:last] {
				stamp(l, tc.members, st)
			}
			l.ar.carve(int(arenaLimit - perEvent - slack - l.ar.end()))
			if roomFor([]uint32{l.ar.end()}, 1, 0, numProcs) < 1 {
				t.Fatalf("%s: the rule grants no event at %d", tc.name, l.ar.end())
			}
			stamp(l, tc.members, tc.steps[last])
			if tc.members == nil {
				if full := l.ar.chunks.full(l.notes.last(), numProcs, nil); !slices.Equal(full, l.clk) {
					t.Fatalf("%s, %d short of the limit: the last note decodes to %v", tc.name, perEvent+slack, full)
				}
			}
			if l.ar.end() > arenaLimit {
				t.Fatalf("%s, %d short of the limit: the arena reached %d, past %d", tc.name, perEvent+slack, l.ar.end(), int64(arenaLimit))
			}
		}
	}
}

// TestStoreStatsAgreeAcrossLanes holds the store tallies summed over two
// lanes to the one lane's, field by field through reflection so that a field
// added later is held too: which form a vector takes depends on its process's
// own clocks alone, never on the lane, and the RPC trace stores every form,
// so each tally is nonzero and a field the sum over lanes leaves out reads 0.
func TestStoreStatsAgreeAcrossLanes(t *testing.T) {
	tr := workload.RPCBusiness(240, 24, 24, 3000, 0.05, 1)
	var one StoreStats
	for _, lanes := range []int{1, 2} {
		pipe, err := NewPipeline(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}, PipelineOptions{Shards: lanes})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tr.Events); lo += 32 {
			if err := pipe.DispatchAsync(tr.Events[lo:min(lo+32, len(tr.Events))], nil); err != nil {
				t.Fatal(err)
			}
		}
		pipe.Barrier()
		st := pipe.StoreStats()
		pipe.Close()
		if lanes == 1 {
			one = st
		}
		got, want := reflect.ValueOf(st), reflect.ValueOf(one)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if want.Field(i).Int() == 0 {
				t.Errorf("lanes=%d: %s is 0: the trace no longer stores that form", lanes, name)
			}
			if got.Field(i).Int() != want.Field(i).Int() {
				t.Errorf("lanes=%d: %s = %d, %d at one lane", lanes, name, got.Field(i).Int(), want.Field(i).Int())
			}
		}
	}
}

// TestOneLaneExactOnReturn pins the one-lane shape's accounting to the call
// that fed it, with no Barrier: on the return of every DispatchOne and
// DispatchAsync the lane's queue depth reads 0 and StoreStats holds a cell for
// every finalized event and a note for every noted cluster receive — and at
// the end the tallies of the whole trace fed in one ObserveAll.
func TestOneLaneExactOnReturn(t *testing.T) {
	tr := workload.RPCBusiness(60, 6, 6, 300, 0.05, 1)
	cfg := func() Config { return Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()} }
	pipe, err := NewPipeline(tr.NumProcs, cfg(), PipelineOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	exact := func(call string, lo int) {
		t.Helper()
		if d := pipe.LaneQueueDepthsInto(nil); !slices.Equal(d, []uint64{0}) {
			t.Fatalf("after %s at event %d: lane queue depths %v, want [0]", call, lo, d)
		}
		st, r := pipe.StoreStats(), pipe.Result()
		if st.CellBytes != cellBytes*int64(r.Events) || st.Keyframes+st.DeltaFrames+st.NibbleFrames != int64(r.ClusterReceives) {
			t.Fatalf("after %s at event %d: %d cell bytes and %d notes for %d events and %d noted cluster receives",
				call, lo, st.CellBytes, st.Keyframes+st.DeltaFrames+st.NibbleFrames, r.Events, r.ClusterReceives)
		}
	}
	half := len(tr.Events) / 2
	for lo := 0; lo < half; lo++ {
		if err := pipe.DispatchOne(tr.Events[lo]); err != nil {
			t.Fatal(err)
		}
		exact("DispatchOne", lo)
	}
	for lo, n := half, 1; lo < len(tr.Events); n = n*7%300 + 1 {
		hi := min(lo+n, len(tr.Events))
		if err := pipe.DispatchAsync(tr.Events[lo:hi], nil); err != nil {
			t.Fatal(err)
		}
		exact("DispatchAsync", lo)
		lo = hi
	}
	ref, err := NewTimestamper(tr.NumProcs, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if got, want := pipe.StoreStats(), ref.StoreStats(); got != want {
		t.Fatalf("event by event and in batches %+v, in one ObserveAll %+v", got, want)
	}
}

// TestOneLaneStagingBounded pins the inline drain's chunking: ObserveAll of a
// trace many times inlineChunk long stamps it through a staging buffer that
// keeps the capacity it was built with.
func TestOneLaneStagingBounded(t *testing.T) {
	tr := workload.Ring(44, 75, false)
	ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	want := cap(ts.curBufs[0])
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if got := cap(ts.curBufs[0]); got != want || len(tr.Events) < 10*inlineChunk {
		t.Fatalf("ObserveAll of %d events: one-lane staging capacity %d, built with %d", len(tr.Events), got, want)
	}
}

// TestStoreFullRefusal drives the admission gate against a lane whose
// published arena offset is — synthetically — at its limit: every entry point
// refuses with ErrStoreFull, the refusal is batch-atomic (no frontier moves,
// nothing is planned or stamped, a batch larger than the room left is refused
// whole), and the same events are accepted once the tally says there is room.
func TestStoreFullRefusal(t *testing.T) {
	ev := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	const perEvent = 2 * (2 + 1 + 4 + 2) // numProcs 4: roomFor's over-count, a keyframe with its epoch element and its frame and one frame more
	for _, shards := range []int{1, 2} {
		pipe, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
			PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// publish sets the offset the last lane's arena is seen at by the gate.
		publish := func(end uint32) {
			pipe.doneMu.Lock()
			pipe.laneEnds[shards-1] = end
			pipe.doneMu.Unlock()
		}
		untouched := func(what string) {
			t.Helper()
			if got := pipe.FrontierNext(); !slices.Equal(got, []model.EventIndex{1, 1, 1, 1}) || pipe.Events() != 0 {
				t.Fatalf("shards=%d: %s: frontier %v, %d events planned: a refused batch was partly applied", shards, what, got, pipe.Events())
			}
		}

		publish(arenaLimit - perEvent + 1)
		if err := pipe.DispatchAsync([]model.Event{ev(0, 1), ev(1, 1)}, nil); !errors.Is(err, ErrStoreFull) {
			t.Fatalf("shards=%d: DispatchAsync against a full lane: %v, want ErrStoreFull", shards, err)
		}
		untouched("DispatchAsync")
		if err := pipe.DispatchOne(ev(0, 1)); !errors.Is(err, ErrStoreFull) {
			t.Fatalf("shards=%d: DispatchOne against a full lane: %v, want ErrStoreFull", shards, err)
		}
		untouched("DispatchOne")
		adm := pipe.Admission()
		adm.Lock()
		err = adm.Admit(ev(0, 1))
		adm.Unlock()
		if !errors.Is(err, ErrStoreFull) {
			t.Fatalf("shards=%d: Admit against a full lane: %v, want ErrStoreFull", shards, err)
		}
		untouched("Admit")

		if shards > 1 {
			// Room for one event: a batch of two is refused whole, one is let in.
			publish(arenaLimit - perEvent)
			if err := pipe.DispatchAsync([]model.Event{ev(0, 1), ev(1, 1)}, nil); !errors.Is(err, ErrStoreFull) {
				t.Fatalf("shards=%d: batch of two with room for one: %v, want ErrStoreFull", shards, err)
			}
			untouched("batch of two with room for one")
			if err := pipe.DispatchOne(ev(0, 1)); err != nil {
				t.Fatalf("shards=%d: one event with room for one: %v", shards, err)
			}
			pipe.Barrier()
		}

		publish(0)
		if err := pipe.DispatchAsync([]model.Event{ev(2, 1), ev(3, 1)}, nil); err != nil {
			t.Fatalf("shards=%d: pipeline unusable after a store-full refusal: %v", shards, err)
		}
		pipe.Barrier()
		if _, ok := pipe.Timestamp(ev(3, 1).ID); !ok {
			t.Fatalf("shards=%d: event admitted after the refusals not published", shards)
		}
		pipe.Close()
	}
}

// TestReplayPastTheStoreLimit replays a write-ahead log the way recovery does
// (wal.Log.Replay, record by record, into DispatchAsync) into a pipeline whose room is lower than
// the log is long: the second lane's published arena offset is set,
// synthetically, two events short of arenaLimit. The first record is stamped,
// the second is refused whole with ErrStoreFull, and the error names the
// per-lane limit and that more lanes share it out — what an operator whose
// log outgrew a lane needs to start again.
func TestReplayPastTheStoreLimit(t *testing.T) {
	const perEvent = 2 * (2 + 1 + 4 + 2) // numProcs 4, as in TestStoreFullRefusal
	ev := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{NumProcs: 4, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Processes 0 and 1 are the first lane's, so the second never publishes
	// an offset over the synthetic one.
	for _, run := range [][]model.Event{{ev(0, 1), ev(1, 1)}, {ev(0, 2), ev(1, 2), ev(0, 3)}} {
		if err := wlog.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	if wlog, err = wal.Open(dir, wal.Options{NumProcs: 4, Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	pipe, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()}, PipelineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pipe.doneMu.Lock()
	pipe.laneEnds[1] = arenaLimit - 2*perEvent
	pipe.doneMu.Unlock()

	err = wlog.Replay(func(batch []model.Event) error { return pipe.DispatchAsync(batch, nil) })
	pipe.Barrier()
	if !errors.Is(err, ErrStoreFull) || !strings.Contains(err.Error(), fmt.Sprintf("at most %d elements", arenaLimit)) ||
		!strings.Contains(err.Error(), "more lanes") {
		t.Fatalf("replay past the store's limit: %v, want ErrStoreFull naming the %d-element lane limit and more lanes", err, arenaLimit)
	}
	if got := pipe.FrontierNext(); !slices.Equal(got, []model.EventIndex{2, 2, 1, 1}) {
		t.Fatalf("frontier after the refused record: %v, want the first record's alone", got)
	}
	if _, ok := pipe.Timestamp(ev(1, 1).ID); !ok {
		t.Fatal("the record that fit was not stamped")
	}
}

// FuzzPipelineDifferential holds the pipeline to the Fidge/Mattern oracle on
// random valid computations — messages with arbitrary latency, sync pairs,
// any process count up to 8 — not only the corpus: at every shard count and
// two plan-queue depths, fed through the batch entry point in ragged batches,
// every timestamp is the oracle's vector (whole, or projected onto the
// event's cluster), byte-identical to the one-lane engine's, and the
// precedence matrix is the oracle's.
func FuzzPipelineDifferential(f *testing.F) {
	for _, sd := range fuzzPipelineSeeds {
		f.Add(sd.shape, sd.ops)
	}
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		tr, procs := fuzzTrace(shape, ops)
		if len(tr.Events) == 0 {
			return
		}
		stamped, err := fm.StampAll(tr)
		if err != nil {
			t.Fatalf("the oracle rejects a built trace: %v", err)
		}
		oracle := make(map[model.EventID]vclock.Clock, len(stamped))
		for _, s := range stamped {
			oracle[s.Event.ID] = s.Clock
		}
		maxCS := 1 + int(shape>>3)%4
		ref, err := NewTimestamper(procs, pipelineConfig(t, tr, int(shape), maxCS))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ObserveAll(tr); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			for _, pq := range []int{1, 4} {
				if shards == 1 && pq > 1 {
					continue // one lane reads no depth
				}
				pipe, err := NewPipeline(procs, pipelineConfig(t, tr, int(shape), maxCS), PipelineOptions{Shards: shards, PlanQueue: pq})
				if err != nil {
					t.Fatal(err)
				}
				for lo, n := 0, 1; lo < len(tr.Events); n = n*3%17 + 1 {
					hi := min(lo+n, len(tr.Events))
					if err := pipe.DispatchAsync(tr.Events[lo:hi], nil); err != nil {
						pipe.Close()
						t.Fatalf("shards=%d depth=%d: a valid run rejected: %v", shards, pq, err)
					}
					lo = hi
				}
				pipe.Barrier()
				for _, e := range tr.Events {
					got, ok := pipe.Timestamp(e.ID)
					want, _ := ref.Timestamp(e.ID)
					if !ok || !sameTimestamp(got, want) {
						pipe.Close()
						t.Fatalf("shards=%d depth=%d: Timestamp(%v) = %v (%v), one-lane %v", shards, pq, e.ID, got, ok, want)
					}
					clk := oracle[e.ID]
					if got.Cluster == nil {
						if !got.Full.Equal(clk) {
							pipe.Close()
							t.Fatalf("shards=%d depth=%d: %v retains %v, Fidge/Mattern %v", shards, pq, e.ID, got.Full, clk)
						}
						continue
					}
					for i, q := range got.Cluster.Members {
						if got.Proj[i] != clk[q] {
							pipe.Close()
							t.Fatalf("shards=%d depth=%d: %v projection[%d] = %d, Fidge/Mattern %d", shards, pq, e.ID, q, got.Proj[i], clk[q])
						}
					}
				}
				for i := range tr.Events {
					for j := i % 3; j < len(tr.Events); j += 3 {
						e, f := tr.Events[i].ID, tr.Events[j].ID
						got, err := pipe.Precedes(e, f)
						if want := fm.Precedes(e, oracle[e], f, oracle[f]); err != nil || got != want {
							pipe.Close()
							t.Fatalf("shards=%d depth=%d: Precedes(%v,%v) = %v, %v; Fidge/Mattern %v", shards, pq, e, f, got, err, want)
						}
					}
				}
				pipe.Close()
			}
		}
	})
}

// fuzzPipelineSeeds are FuzzPipelineDifferential's seeds, which the seeded
// scheduler (sched_test.go) replays too.
var fuzzPipelineSeeds = []struct {
	shape uint8
	ops   []byte
}{
	{0, []byte{0x00, 0, 0x09, 0, 0x12, 1, 0x0b, 0, 0x04, 1}},
	{9, []byte{0x01, 0, 0x09, 0, 0x11, 0, 0x02, 2, 0x02, 0, 0x03, 1, 0x02, 0, 0x1b, 2}},
	{23, []byte{0x03, 1, 0x03, 2, 0x0b, 0, 0x04, 3, 0x01, 0, 0x13, 0, 0x02, 1}},
	{40, []byte{0x01, 0, 0x01, 0, 0x01, 0, 0x0a, 1, 0x0a, 2, 0x0a, 0, 0x04, 5, 0x0c, 3}},
	// Mostly synchronous pairs (op 3), chained so that a half's successor holds
	// exactly its index: partners must read each other directly and nothing
	// else may pass for a partner, as full vectors (maxCS 1 and 2), under
	// merge-on-first (maxCS 4) and under a static partition (maxCS 3).
	{1, []byte{0x03, 0, 0x0b, 0, 0x13, 0, 0x03, 1, 0x0b, 1, 0x13, 1, 0x03, 0, 0x0b, 0}},
	{10, []byte{0x03, 0, 0x03, 1, 0x03, 2, 0x03, 3, 0x0b, 0, 0x1b, 1, 0x23, 2, 0x13, 3, 0x04, 1, 0x03, 0}},
	{24, []byte{0x03, 0, 0x0b, 0, 0x03, 1, 0x13, 0, 0x1b, 0, 0x23, 0, 0x03, 2, 0x0c, 1, 0x03, 3, 0x13, 1}},
	{20, []byte{0x03, 0, 0x0b, 1, 0x13, 2, 0x1b, 3, 0x23, 4, 0x2b, 5, 0x33, 6, 0x3b, 0, 0x03, 3, 0x1b, 5, 0x2b, 1, 0x3b, 2}},
}

// fuzzTrace builds FuzzPipelineDifferential's computation from its input:
// messages with arbitrary latency, sync pairs, 2 to 8 processes.
func fuzzTrace(shape uint8, ops []byte) (*model.Trace, int) {
	if len(ops) > 600 {
		ops = ops[:600]
	}
	procs := 2 + int(shape)%7
	b := model.NewBuilder("fuzz", procs)
	var inflight []model.EventID
	other := func(p model.ProcessID, a byte) model.ProcessID {
		return model.ProcessID((int(p) + 1 + int(a)%(procs-1)) % procs)
	}
	for i := 0; i+1 < len(ops); i += 2 {
		p, a := model.ProcessID(int(ops[i]>>3)%procs), ops[i+1]
		switch ops[i] & 7 {
		case 0:
			b.Unary(p)
		case 1:
			inflight = append(inflight, b.Send(p))
		case 2:
			if len(inflight) > 0 {
				k := int(a) % len(inflight)
				b.Receive(other(inflight[k].Process, a>>3), inflight[k])
				inflight = slices.Delete(inflight, k, k+1)
			}
		case 3:
			b.Sync(p, other(p, a))
		default:
			b.Message(p, other(p, a))
		}
	}
	for _, s := range inflight {
		b.Receive(other(s.Process, 0), s)
	}
	return b.Trace(), procs
}
