package hct

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func mustTimestamper(t *testing.T, n int, cfg Config) *Timestamper {
	t.Helper()
	ts, err := NewTimestamper(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func staticPartition(t *testing.T, n int, groups [][]int32) *cluster.Partition {
	t.Helper()
	p, err := cluster.NewFromGroups(n, groups)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crossClusterTrace: processes {0,1} in one cluster, {2,3} in another.
// Intra-cluster messages plus one cross-cluster message 1 -> 2.
func crossClusterTrace(t *testing.T) *model.Trace {
	t.Helper()
	b := model.NewBuilder("cross", 4)
	b.Message(0, 1) // intra
	b.Message(2, 3) // intra
	b.Message(1, 2) // cross: receive on p2 is a cluster receive
	b.Message(3, 2) // intra
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStaticClustersProjectionAndCR(t *testing.T) {
	tr := crossClusterTrace(t)
	part := staticPartition(t, 4, [][]int32{{0, 1}, {2, 3}})
	ts := mustTimestamper(t, 4, Config{MaxClusterSize: 2, Partition: part})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if ts.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d, want %d", ts.Events(), tr.NumEvents())
	}
	if ts.ClusterReceives() != 1 {
		t.Fatalf("ClusterReceives = %d, want 1", ts.ClusterReceives())
	}
	if got := ts.Result().MergedReceives; got != 0 {
		t.Fatalf("MergedReceives = %d, want 0", got)
	}

	// The cross-cluster receive is p2:2 (after its intra send p2:1).
	cr, ok := ts.Timestamp(model.EventID{Process: 2, Index: 2})
	if !ok {
		t.Fatal("missing CR timestamp")
	}
	if cr.Full == nil {
		t.Fatalf("cross receive not a cluster receive: %v", cr)
	}
	// Its full vector: it knows p0's single event via p1, both p1 events,
	// its own two events, and nothing of p3.
	wantFull := []int32{1, 2, 2, 0}
	for i, w := range wantFull {
		if cr.Full[i] != w {
			t.Fatalf("CR full = %v, want %v", cr.Full, wantFull)
		}
	}

	// An intra-cluster event keeps a projection of width 2.
	pr, ok := ts.Timestamp(model.EventID{Process: 1, Index: 1})
	if !ok || pr.Full != nil {
		t.Fatalf("intra receive mis-stamped: %v", pr)
	}
	if len(pr.Proj) != 2 || pr.Cluster.Size() != 2 {
		t.Fatalf("projection = %v over %v", pr.Proj, pr.Cluster)
	}
	// Proj over {0,1}: p0 sent one event, p1 has one event.
	if pr.Proj[0] != 1 || pr.Proj[1] != 1 {
		t.Fatalf("projection values = %v", pr.Proj)
	}
	// component lookups.
	if v, ok := pr.component(0); !ok || v != 1 {
		t.Fatalf("component(0) = %d,%v", v, ok)
	}
	if _, ok := pr.component(3); ok {
		t.Fatalf("component outside cluster succeeded")
	}
	if v, ok := cr.component(1); !ok || v != 2 {
		t.Fatalf("CR component(1) = %d,%v", v, ok)
	}
	if _, ok := cr.component(model.ProcessID(99)); ok {
		t.Fatalf("CR component out of range succeeded")
	}
	if cr.String() == "" || pr.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMergeOnFirstMergesInsteadOfNoting(t *testing.T) {
	tr := crossClusterTrace(t)
	ts := mustTimestamper(t, 4, Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	// Every receive merges (sizes permit), so no CRs are noted.
	if ts.ClusterReceives() != 0 {
		t.Fatalf("ClusterReceives = %d, want 0", ts.ClusterReceives())
	}
	if got := ts.Result().MergedReceives; got != 3 {
		t.Fatalf("MergedReceives = %d, want 3", got)
	}
	if got := ts.Result().LiveClusters; got != 1 {
		t.Fatalf("expected single merged cluster, live=%d", got)
	}
	// Merged cluster receive is stamped with a projection over the merged
	// cluster (the event "is no longer a cluster receive").
	mr, _ := ts.Timestamp(model.EventID{Process: 1, Index: 1})
	if mr.Full != nil {
		t.Fatalf("merged receive kept full vector")
	}
	if mr.Cluster.Size() != 2 {
		t.Fatalf("merge epoch wrong: %v", mr.Cluster)
	}
}

func TestMergeRespectsSizeBound(t *testing.T) {
	tr := crossClusterTrace(t)
	ts := mustTimestamper(t, 4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if ts.Partition().MaxLiveSize() > 2 {
		t.Fatalf("cluster grew past bound: %d", ts.Partition().MaxLiveSize())
	}
	// {0,1} and {2,3} merge; the 1->2 cross receive cannot (2+2 > 2), so
	// it is noted.
	if ts.ClusterReceives() != 1 {
		t.Fatalf("ClusterReceives = %d, want 1", ts.ClusterReceives())
	}
}

func TestSyncCrossClusterBothHalvesNoted(t *testing.T) {
	b := model.NewBuilder("sync-cross", 4)
	b.Sync(0, 2)
	tr := b.Trace()
	part := staticPartition(t, 4, [][]int32{{0, 1}, {2, 3}})
	ts := mustTimestamper(t, 4, Config{MaxClusterSize: 2, Partition: part})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	// Both sync halves cross clusters: two noted cluster receives.
	if ts.ClusterReceives() != 2 {
		t.Fatalf("ClusterReceives = %d, want 2", ts.ClusterReceives())
	}
}

func TestSyncCrossClusterMergeMakesSecondHalfIntra(t *testing.T) {
	b := model.NewBuilder("sync-merge", 2)
	b.Sync(0, 1)
	tr := b.Trace()
	ts := mustTimestamper(t, 2, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	// First half merges the two singletons; second half is then intra.
	if ts.ClusterReceives() != 0 {
		t.Fatalf("ClusterReceives = %d, want 0", ts.ClusterReceives())
	}
	if got := ts.Result().MergedReceives; got != 1 {
		t.Fatalf("MergedReceives = %d, want 1", got)
	}
}

func TestPrecedesWithinCluster(t *testing.T) {
	tr := crossClusterTrace(t)
	part := staticPartition(t, 4, [][]int32{{0, 1}, {2, 3}})
	ts := mustTimestamper(t, 4, Config{MaxClusterSize: 2, Partition: part})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	cases := []struct {
		e, f model.EventID
		want bool
	}{
		{id(0, 1), id(1, 1), true},  // send -> receive, same cluster
		{id(1, 1), id(0, 1), false}, // reverse
		{id(0, 1), id(2, 2), true},  // cross cluster via CR (p2:2 receives from p1)
		{id(0, 1), id(2, 3), true},  // and transitively to later events
		{id(2, 1), id(0, 1), false}, // other direction: no path
		{id(2, 1), id(3, 1), true},  // intra second cluster
		{id(0, 1), id(3, 1), false}, // p3:1 happened before the cross message arrived
		{id(0, 1), id(0, 1), false}, // irreflexive
	}
	for _, tc := range cases {
		got, err := ts.Precedes(tc.e, tc.f)
		if err != nil {
			t.Fatalf("Precedes(%v,%v): %v", tc.e, tc.f, err)
		}
		if got != tc.want {
			t.Errorf("Precedes(%v,%v) = %v, want %v", tc.e, tc.f, got, tc.want)
		}
	}
	conc, err := ts.Concurrent(id(0, 1), id(3, 1))
	if err != nil || !conc {
		t.Errorf("Concurrent(p0:1,p3:1) = %v,%v", conc, err)
	}
	conc, err = ts.Concurrent(id(0, 1), id(1, 1))
	if err != nil || conc {
		t.Errorf("Concurrent(send,recv) = %v,%v", conc, err)
	}
	if c, _ := ts.Concurrent(id(0, 1), id(0, 1)); c {
		t.Errorf("Concurrent must be irreflexive")
	}
}

func TestPrecedesSyncPartnersConcurrent(t *testing.T) {
	b := model.NewBuilder("sync", 2)
	p, q := b.Sync(0, 1)
	tr := b.Trace()
	ts := mustTimestamper(t, 2, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err := ts.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if got, _ := ts.Precedes(p, q); got {
		t.Errorf("sync halves ordered p->q")
	}
	if got, _ := ts.Precedes(q, p); got {
		t.Errorf("sync halves ordered q->p")
	}
}

// TestSyncPartnersReadEachOtherDirectly pins the rule View.Precedes tells the
// two halves of a synchronous pair apart by, the store keeping no partner
// (sync-partners-direct, DESIGN.md §10). Over every pair of an RPC tier, at
// one lane and two, live and at a cut: each half's stored form holds its
// partner's component directly — it is a noted cluster receive, or the partner
// is in its epoch — and that component is exactly the partner's index;
// neither half precedes the other and the two are concurrent. And the case the
// rule must not swallow: a synchronous event f that is not e's partner but
// holds exactly e's index directly — the next call the partner's process
// served — is e's successor, and not the other way round.
func TestSyncPartnersReadEachOtherDirectly(t *testing.T) {
	tr := workload.RPCBusiness(240, 24, 24, 22000, 0.05, 1)
	if testing.Short() {
		tr = workload.RPCBusiness(240, 24, 24, 3000, 0.05, 1)
	}
	// Each pair once, and each process's events in index order: the trace is
	// what says who is whose partner.
	var pairs [][2]model.EventID
	events := make([][]model.Event, tr.NumProcs)
	for _, e := range tr.Events {
		events[e.ID.Process] = append(events[e.ID.Process], e)
		if e.Kind == model.Sync && e.ID.Process < e.Partner.Process {
			pairs = append(pairs, [2]model.EventID{e.ID, e.Partner})
		}
	}
	if len(pairs) == 0 {
		t.Fatal("the trace has no synchronous pairs")
	}
	// direct returns FM(x)[q] when x's stored form holds it, from the cell's
	// epoch and the view's timestamp.
	direct := func(v View, x model.EventID, q model.ProcessID) (int32, bool) {
		t.Helper()
		c := v.cell(x)
		if c == nil {
			t.Fatalf("%v is not below the view's bound", x)
		}
		if !c.noted() {
			if _, ok := v.ts.epoch(v.ts.vectors(x.Process).proj(c.vec()).ep).PosOf(int32(q)); !ok {
				return 0, false
			}
		}
		ts, _ := v.Timestamp(x)
		comp, ok := ts.component(q)
		if !ok {
			t.Fatalf("%v: the view holds no component %d where the cell does", x, q)
		}
		return comp, true
	}
	precedes := func(v View, e, f model.EventID, want bool) {
		t.Helper()
		if got, err := v.Precedes(e, f); err != nil || got != want {
			t.Fatalf("Precedes(%v, %v) = %v, %v; want %v", e, f, got, err, want)
		}
	}
	for _, lanes := range []int{1, 2} {
		pipe, err := NewPipeline(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}, PipelineOptions{Shards: lanes})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tr.Events); lo += 1024 {
			if err := pipe.DispatchAsync(tr.Events[lo:min(lo+1024, len(tr.Events))], nil); err != nil {
				t.Fatal(err)
			}
		}
		pipe.Barrier()
		for _, v := range []View{pipe.Live(), pipe.At(pipe.CaptureWatermark(nil))} {
			successors := 0
			for _, pr := range pairs {
				for _, h := range [][2]model.EventID{pr, {pr[1], pr[0]}} {
					e, g := h[0], h[1] // e's partner g
					if comp, ok := direct(v, g, e.Process); !ok || comp != int32(e.Index) {
						t.Fatalf("lanes=%d cut=%v: %v holds its partner %v's component directly: %v, as %d", lanes, v.w != nil, g, e, ok, comp)
					}
					precedes(v, e, g, false)
					// The next synchronous events of g's process that still hold
					// exactly e's index: e's successors, by one comparison more.
					for _, f := range events[g.Process][g.Index:min(int(g.Index)+8, len(events[g.Process]))] {
						comp, ok := direct(v, f.ID, e.Process)
						if ok && comp > int32(e.Index) {
							break
						}
						if ok && f.Kind == model.Sync {
							precedes(v, e, f.ID, true)
							precedes(v, f.ID, e, false)
							successors++
						}
					}
				}
				if conc, err := v.Concurrent(pr[0], pr[1]); err != nil || !conc {
					t.Fatalf("lanes=%d cut=%v: Concurrent(%v, %v) = %v, %v", lanes, v.w != nil, pr[0], pr[1], conc, err)
				}
			}
			if successors == 0 {
				t.Fatalf("lanes=%d cut=%v: no synchronous non-partner holds a half's index exactly and directly", lanes, v.w != nil)
			}
			t.Logf("lanes=%d cut=%v: %d pairs, %d non-partners holding a half's index exactly", lanes, v.w != nil, len(pairs), successors)
		}
		pipe.Close()
	}
}

func TestPrecedesUnknownEvent(t *testing.T) {
	ts := mustTimestamper(t, 2, Config{MaxClusterSize: 2})
	_, err := ts.Precedes(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1})
	if !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
	if _, err := ts.Concurrent(model.EventID{Process: 0, Index: 1}, model.EventID{Process: 1, Index: 1}); err == nil {
		t.Fatalf("Concurrent on unknown events succeeded")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := NewTimestamper(0, Config{MaxClusterSize: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("numProcs=0 accepted: %v", err)
	}
	if _, err := NewTimestamper(2, Config{MaxClusterSize: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("maxCS=0 accepted: %v", err)
	}
	part := cluster.NewSingletons(3)
	if _, err := NewTimestamper(2, Config{MaxClusterSize: 2, Partition: part}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mismatched partition accepted: %v", err)
	}
	if _, err := NewAccountant(0, Config{MaxClusterSize: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("accountant numProcs=0 accepted: %v", err)
	}
	if _, err := NewAccountant(2, Config{MaxClusterSize: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("accountant maxCS=0 accepted: %v", err)
	}
	if _, err := NewAccountant(2, Config{MaxClusterSize: 2, Partition: part}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("accountant mismatched partition accepted: %v", err)
	}
}

func TestObserveAllPropagatesFMErrors(t *testing.T) {
	tr := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	ts := mustTimestamper(t, 2, Config{MaxClusterSize: 2})
	if err := ts.ObserveAll(tr); err == nil {
		t.Fatalf("invalid stream accepted")
	}
}

// TestFacadeSyncPairAndStreamEnd pins the two places the façade adds
// behaviour over dispatchOne/Dispatch: after Ingest what the event finalized
// is readable (nothing for a held first sync half, then both halves), and
// ObserveAll rejects a stream that ends incomplete.
func TestFacadeSyncPairAndStreamEnd(t *testing.T) {
	half := func(p, q model.ProcessID) model.Event {
		return model.Event{ID: model.EventID{Process: p, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: q, Index: 1}}
	}
	ts := mustTimestamper(t, 2, Config{MaxClusterSize: 2})
	if err := ts.Ingest(half(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got, ok := ts.Timestamp(half(0, 1).ID); ok {
		t.Fatalf("first sync half stamped before its partner arrived: %v", got)
	}
	if err := ts.Ingest(half(1, 0)); err != nil {
		t.Fatal(err)
	}
	first, ok1 := ts.Timestamp(half(0, 1).ID)
	second, ok2 := ts.Timestamp(half(1, 0).ID)
	if !ok1 || !ok2 {
		t.Fatalf("second sync half finalized %v, %v; want both halves", ok1, ok2)
	}
	if !first.Full.Equal(second.Full) || first.Full[0] != 1 || first.Full[1] != 1 {
		t.Fatalf("sync halves must share the joint vector: %v, %v", first, second)
	}

	unpaired := &model.Trace{NumProcs: 2, Events: []model.Event{half(0, 1)}}
	if err := mustTimestamper(t, 2, Config{MaxClusterSize: 2}).ObserveAll(unpaired); err == nil || !strings.Contains(err.Error(), "unpaired sync") {
		t.Fatalf("unpaired sync at end of stream: err = %v", err)
	}
	unreceived := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}},
	}}
	if err := mustTimestamper(t, 2, Config{MaxClusterSize: 2}).ObserveAll(unreceived); err == nil || !strings.Contains(err.Error(), "unreceived sends") {
		t.Fatalf("unreceived send at end of stream: err = %v", err)
	}
}

// randomLocalTrace generates a trace with strong neighbour locality plus
// occasional long-range messages and syncs — the regime the timestamps
// target.
func randomLocalTrace(r *rand.Rand, n, events int) *model.Trace {
	b := model.NewBuilder("randlocal", n)
	for b.NumEvents() < events {
		p := r.Intn(n)
		switch {
		case r.Float64() < 0.15:
			b.Unary(model.ProcessID(p))
		case r.Float64() < 0.12 && n > 2:
			q := r.Intn(n)
			if q == p {
				q = (q + 1) % n
			}
			if r.Float64() < 0.5 {
				b.Sync(model.ProcessID(p), model.ProcessID(q))
			} else {
				b.Message(model.ProcessID(p), model.ProcessID(q))
			}
		default:
			q := (p + 1) % n // neighbour
			b.Message(model.ProcessID(p), model.ProcessID(q))
		}
	}
	return b.Trace()
}

func TestAccountantAgreesWithTimestamper(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(10)
		tr := randomLocalTrace(r, n, 150)
		maxCS := 1 + r.Intn(n+2)
		for _, mk := range []func() (Config, Config){
			func() (Config, Config) {
				return Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()},
					Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()}
			},
			func() (Config, Config) {
				return Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(1.5)},
					Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(1.5)}
			},
			func() (Config, Config) {
				return Config{MaxClusterSize: maxCS}, Config{MaxClusterSize: maxCS}
			},
		} {
			cfgT, cfgA := mk()
			ts, err := NewTimestamper(n, cfgT)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.ObserveAll(tr); err != nil {
				t.Fatal(err)
			}
			res, err := ResultOf(tr, cfgA)
			if err != nil {
				t.Fatal(err)
			}
			if got := ts.Result(); got != res {
				t.Fatalf("trial %d (maxCS=%d): accountant %+v disagrees with timestamper %+v", trial, maxCS, res, got)
			}
			// Storage identity: engine-side accounting equals the
			// accountant's ratio formula.
			fixed := 300
			gotRatio := float64(ts.StorageInts(fixed)) / (float64(ts.Events()) * float64(fixed))
			wantRatio := res.AverageRatio(fixed)
			if diff := gotRatio - wantRatio; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("ratio mismatch: %f vs %f", gotRatio, wantRatio)
			}
		}
	}
}

func TestAverageRatioEdgeCases(t *testing.T) {
	if r := (Result{}).AverageRatio(300); r != 0 {
		t.Fatalf("empty ratio = %f", r)
	}
	r := Result{Events: 10, ClusterReceives: 10, MaxClusterSize: 5}
	if got := r.AverageRatio(300); got != 1.0 {
		t.Fatalf("all-CR ratio = %f, want 1", got)
	}
	r2 := Result{Events: 10, ClusterReceives: 0, MaxClusterSize: 30}
	if got := r2.AverageRatio(300); got != 0.1 {
		t.Fatalf("no-CR ratio = %f, want 0.1", got)
	}
}
