package replay_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/workload"
)

// configFactory builds the strategy rotation used across the differential
// battery (mirroring the hct pipeline tests): deciders are stateful and the
// engine mutates the partition it is handed, so every call hands out a fresh
// Config.
func configFactory(t *testing.T, tr *model.Trace, variant, maxCS int) func() hct.Config {
	t.Helper()
	switch variant % 3 {
	case 0:
		return func() hct.Config {
			return hct.Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()}
		}
	case 1:
		return func() hct.Config {
			return hct.Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(5)}
		}
	default:
		groups := strategy.StaticGreedy(commgraph.FromTrace(tr), maxCS)
		return func() hct.Config {
			part, err := cluster.NewFromGroups(tr.NumProcs, groups)
			if err != nil {
				t.Fatal(err)
			}
			return hct.Config{MaxClusterSize: maxCS, Partition: part}
		}
	}
}

// sameTimestamp reports whether two timestamps are identical down to the
// cluster-epoch identity and every vector element.
func sameTimestamp(a, b hct.Timestamp) bool {
	return a.ID == b.ID && a.Kind == b.Kind &&
		((a.Cluster == nil) == (b.Cluster == nil)) &&
		(a.Cluster == nil || (a.Cluster.ID == b.Cluster.ID &&
			vclock.Clock(a.Cluster.Members).Equal(vclock.Clock(b.Cluster.Members)))) &&
		vclock.Clock(a.Proj).Equal(vclock.Clock(b.Proj)) &&
		a.Full.Equal(b.Full)
}

// buildWAL journals the trace into a fresh WAL directory in runs of random
// sizes, compacting once at a mid-trace boundary when compactAt is positive.
// It returns the run boundaries as ascending global event counts.
func buildWAL(t *testing.T, dir string, tr *model.Trace, seed int64, compactAt int) []uint64 {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	var boundaries []uint64
	for lo := 0; lo < len(tr.Events); {
		hi := lo + 1 + r.Intn(96)
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := l.AppendRun(tr.Events[lo:hi]); err != nil {
			t.Fatalf("Append events[%d:%d]: %v", lo, hi, err)
		}
		boundaries = append(boundaries, uint64(hi))
		if compactAt > 0 && lo < compactAt && hi >= compactAt {
			if err := l.Compact(); err != nil {
				t.Fatalf("Compact at %d: %v", hi, err)
			}
		}
		lo = hi
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return boundaries
}

// pickCutoffs selects the cutoff sweep: every run boundary on small traces,
// a spread sample (always including the first and last boundary) on large
// ones, plus cutoffs that deliberately land mid-run.
func pickCutoffs(boundaries []uint64, total uint64, r *rand.Rand) []uint64 {
	var cutoffs []uint64
	if len(boundaries) <= 12 {
		cutoffs = append(cutoffs, boundaries...)
	} else {
		cutoffs = append(cutoffs, boundaries[0])
		for k := 1; k <= 8; k++ {
			cutoffs = append(cutoffs, boundaries[k*(len(boundaries)-1)/9])
		}
		cutoffs = append(cutoffs, boundaries[len(boundaries)-1])
	}
	// Mid-run cutoffs: the chain reader must clip inside a record.
	if total > 2 {
		cutoffs = append(cutoffs, 1+uint64(r.Int63n(int64(total-1))))
	}
	// Ascending order exercises the shared-engine delta path; duplicates
	// exercise the cache.
	for i := 1; i < len(cutoffs); i++ {
		for j := i; j > 0 && cutoffs[j] < cutoffs[j-1]; j-- {
			cutoffs[j], cutoffs[j-1] = cutoffs[j-1], cutoffs[j]
		}
	}
	return cutoffs
}

// liveStore delivers the whole trace to a sharded monitor and opens the
// history plane over dir and that monitor's store (OpenLive) — the daemon's
// shape, with the log written by someone else in the same delivery order.
func liveStore(t *testing.T, dir string, tr *model.Trace, cfg hct.Config, shards int, opts replay.Options) *replay.Store {
	t.Helper()
	live, err := monitor.NewWithOptions(tr.NumProcs, cfg, hct.PipelineOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	if err := live.DeliverBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	hist, err := replay.OpenLive(dir, live.Pipeline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hist.Close() })
	return hist
}

// TestReplayDifferentialCorpus is the tentpole correctness bar: for every
// corpus computation, a WAL is written in random-size runs (compacted
// mid-trace for every third computation), and for a sweep of cutoffs the
// replayed view must agree with a live monitor that delivered exactly the
// first c events — identical timestamps (cluster epochs, projections,
// retained full vectors), identical precedence answers, identical
// accounting — at ingest shard counts 1 and 4. A view over a monitor that
// was fed the whole trace (OpenLive) must in turn be indistinguishable from
// the offline store's view at every one of those cutoffs.
func TestReplayDifferentialCorpus(t *testing.T) {
	specs := workload.Corpus()
	for i, spec := range specs {
		if testing.Short() && i%5 != 0 {
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			r := rand.New(rand.NewSource(0xC1F + int64(i)))
			const maxCS = 13
			factory := configFactory(t, tr, i, maxCS)

			dir := t.TempDir()
			compactAt := 0
			if i%3 == 0 && len(tr.Events) > 4 {
				compactAt = 1 + r.Intn(len(tr.Events)-2)
			}
			boundaries := buildWAL(t, dir, tr, int64(i)*7+1, compactAt)

			// Two cache slots force the rewind path when an early cutoff is
			// re-requested after the sweep.
			st, err := replay.Open(dir, replay.Options{NewConfig: factory})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.SetMaxCachedViews(2)

			if got, want := st.Events(), uint64(len(tr.Events)); got != want {
				t.Fatalf("chain records %d events, trace has %d", got, want)
			}
			gotB := st.RunBoundaries()
			if len(gotB) != len(boundaries) {
				t.Fatalf("RunBoundaries: %d boundaries, appended %d runs", len(gotB), len(boundaries))
			}
			for k := range gotB {
				if gotB[k] != boundaries[k] {
					t.Fatalf("RunBoundaries[%d] = %d, want %d", k, gotB[k], boundaries[k])
				}
			}

			cutoffs := pickCutoffs(boundaries, uint64(len(tr.Events)), r)
			var hist *replay.Store
			for _, shards := range []int{1, 4} {
				hist = liveStore(t, dir, tr, factory(), shards, replay.Options{})
				hist.SetMaxCachedViews(2)
				for _, c := range cutoffs {
					v, err := st.ViewAt(c)
					if err != nil {
						t.Fatalf("shards=%d ViewAt(%d): %v", shards, c, err)
					}
					compareViewToLive(t, tr, factory, shards, c, v, r)
					lv, err := hist.ViewAt(c)
					if err != nil {
						t.Fatalf("shards=%d counting ViewAt(%d): %v", shards, c, err)
					}
					compareEngines(t, tr, shards, lv, v, r)
				}
			}

			// Rewind: a mid-sweep cutoff is long evicted from the 2-entry
			// caches, so this re-access counts again, from the start of the
			// log (offline) or from the greatest cached checkpoint (live).
			if len(cutoffs) > 2 {
				c := cutoffs[len(cutoffs)/2]
				v, err := st.ViewAt(c)
				if err != nil {
					t.Fatalf("rewind ViewAt(%d): %v", c, err)
				}
				compareViewToLive(t, tr, factory, 1, c, v, r)
				lv, err := hist.ViewAt(c)
				if err != nil {
					t.Fatalf("rewind counting ViewAt(%d): %v", c, err)
				}
				compareEngines(t, tr, 4, lv, v, r)
			}
		})
	}
}

// TestStatsByCount pins [stats-by-count]: over every corpus computation
// (every fifth under -short) and each strategy variant, a tally that keeps
// the accounting and a one-lane timestamper are fed the trace one event at a
// time, and after every event the tally's Result and pending-send count
// equal the timestamper's Result and PendingSends.
func TestStatsByCount(t *testing.T) {
	for i, spec := range workload.Corpus() {
		if testing.Short() && i%5 != 0 {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Generate()
			factory := configFactory(t, tr, i, 13)
			tl, err := replay.NewTally(tr.NumProcs, factory)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := hct.NewTimestamper(tr.NumProcs, factory())
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			for c, e := range tr.Events {
				if err := ts.Ingest(e); err != nil {
					t.Fatalf("event %d: Ingest: %v", c, err)
				}
				if err := tl.Count([]model.Event{e}); err != nil {
					t.Fatalf("event %d: Count: %v", c, err)
				}
				got, pending := tl.Stats()
				if want := ts.Result(); got != want || pending != ts.PendingSends() {
					t.Fatalf("after %d events: tally %+v, %d pending; timestamper %+v, %d pending", c+1, got, pending, want, ts.PendingSends())
				}
			}
		})
	}
}

// compareViewToLive delivers the first c trace events to a live sharded
// monitor and asserts the replay view is indistinguishable from it.
func compareViewToLive(t *testing.T, tr *model.Trace, factory func() hct.Config, shards int, c uint64, v *replay.View, r *rand.Rand) {
	t.Helper()
	live, err := monitor.NewWithOptions(tr.NumProcs, factory(), hct.PipelineOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	prefix := tr.Events[:c]
	if err := live.DeliverBatch(prefix); err != nil {
		t.Fatalf("shards=%d cutoff=%d: DeliverBatch: %v", shards, c, err)
	}

	// Timestamps: byte-identical, and present on exactly the same events
	// (a sync half whose partner is past the cutoff is withheld by both).
	idxs := make([]int, 0, len(prefix))
	if len(prefix) <= 2000 {
		for i := range prefix {
			idxs = append(idxs, i)
		}
	} else {
		for k := 0; k < 2000; k++ {
			idxs = append(idxs, r.Intn(len(prefix)))
		}
	}
	for _, i := range idxs {
		id := prefix[i].ID
		want, okLive := live.Timestamp(id)
		got, okReplay := v.Timestamp(id)
		if okLive != okReplay {
			t.Fatalf("shards=%d cutoff=%d: Timestamp(%v) present live=%v replay=%v", shards, c, id, okLive, okReplay)
		}
		if okLive && !sameTimestamp(got, want) {
			t.Fatalf("shards=%d cutoff=%d: Timestamp(%v) = %v, live %v", shards, c, id, got, want)
		}
	}
	// Events beyond the cutoff must be absent from both.
	if c < uint64(len(tr.Events)) {
		id := tr.Events[c].ID
		if _, ok := v.Timestamp(id); ok {
			if _, okL := live.Timestamp(id); !okL {
				t.Fatalf("shards=%d cutoff=%d: replay exposes undelivered event %v", shards, c, id)
			}
		}
	}

	// Precedence: the full matrix on small prefixes, dense samples on
	// large ones. Answers and rejections must match exactly.
	check := func(a, b model.EventID) {
		gotP, gotErr := v.Precedes(a, b)
		wantP, wantErr := live.Precedes(a, b)
		if gotP != wantP || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("shards=%d cutoff=%d: Precedes(%v,%v) = (%v,%v), live (%v,%v)",
				shards, c, a, b, gotP, gotErr, wantP, wantErr)
		}
		gotC, gotErr := v.Concurrent(a, b)
		wantC, wantErr := live.Concurrent(a, b)
		if gotC != wantC || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("shards=%d cutoff=%d: Concurrent(%v,%v) = (%v,%v), live (%v,%v)",
				shards, c, a, b, gotC, gotErr, wantC, wantErr)
		}
	}
	if len(prefix) <= 120 {
		for _, e := range prefix {
			for _, f := range prefix {
				check(e.ID, f.ID)
			}
		}
	} else {
		for k := 0; k < 2000; k++ {
			check(prefix[r.Intn(len(prefix))].ID, prefix[r.Intn(len(prefix))].ID)
		}
	}

	// Accounting: what STATS would have reported at the cutoff.
	const fixed = 300
	gotStats, wantStats := v.Stats(fixed), live.Stats(fixed)
	if gotStats.Events != wantStats.Events || gotStats.ClusterReceives != wantStats.ClusterReceives ||
		gotStats.MergedReceives != wantStats.MergedReceives || gotStats.LiveClusters != wantStats.LiveClusters ||
		gotStats.StorageInts != wantStats.StorageInts || gotStats.PendingSends != wantStats.PendingSends {
		t.Fatalf("shards=%d cutoff=%d: Stats = %+v, live %+v", shards, c, gotStats, wantStats)
	}
}

// compareEngines asserts that got, a view over a daemon's store holding the
// whole trace, is indistinguishable from want, the offline store's view at
// the same cutoff: the same watermark, and over events on both sides of the
// cutoff the same timestamps, events, precedence and concurrency answers
// (rejections included) and causal cuts. Accounting is not compared: a view
// over a daemon's store keeps none.
func compareEngines(t *testing.T, tr *model.Trace, shards int, got, want *replay.View, r *rand.Rand) {
	t.Helper()
	c := want.Cutoff()
	if got.Cutoff() != c {
		t.Fatalf("shards=%d: live view is at cutoff %d, offline at %d", shards, got.Cutoff(), c)
	}
	gw, ww := got.Watermark(), want.Watermark()
	for p := range ww {
		if gw[p] != ww[p] {
			t.Fatalf("shards=%d cutoff=%d: watermark[%d] = %d live, %d offline", shards, c, p, gw[p], ww[p])
		}
	}

	all := tr.Events
	sample := func(n int) []model.EventID {
		ids := make([]model.EventID, 0, n)
		if len(all) <= n {
			for _, e := range all {
				ids = append(ids, e.ID)
			}
			return ids
		}
		for k := 0; k < n; k++ {
			ids = append(ids, all[r.Intn(len(all))].ID)
		}
		// The events either side of the cutoff are where a wrong watermark shows.
		for k := int(c) - 2; k < int(c)+2; k++ {
			if k >= 0 && k < len(all) {
				ids = append(ids, all[k].ID)
			}
		}
		return ids
	}
	for _, id := range sample(2000) {
		gt, gok := got.Timestamp(id)
		wt, wok := want.Timestamp(id)
		if gok != wok || (gok && !sameTimestamp(gt, wt)) {
			t.Fatalf("shards=%d cutoff=%d: Timestamp(%v) = (%v,%v) live, (%v,%v) offline", shards, c, id, gt, gok, wt, wok)
		}
	}

	check := func(a, b model.EventID) {
		gp, gerr := got.Precedes(a, b)
		wp, werr := want.Precedes(a, b)
		if gp != wp || (gerr != nil) != (werr != nil) {
			t.Fatalf("shards=%d cutoff=%d: Precedes(%v,%v) = (%v,%v) live, (%v,%v) offline", shards, c, a, b, gp, gerr, wp, werr)
		}
		gc, gerr := got.Concurrent(a, b)
		wc, werr := want.Concurrent(a, b)
		if gc != wc || (gerr != nil) != (werr != nil) {
			t.Fatalf("shards=%d cutoff=%d: Concurrent(%v,%v) = (%v,%v) live, (%v,%v) offline", shards, c, a, b, gc, gerr, wc, werr)
		}
	}
	if len(all) <= 120 {
		for _, e := range all {
			for _, f := range all {
				check(e.ID, f.ID)
			}
		}
	} else {
		ids := sample(2000)
		for k := 0; k+1 < len(ids); k += 2 {
			check(ids[k], ids[k+1])
		}
	}

	sameCut := func(name string, id model.EventID, g, w []monitor.CutEntry, gerr, werr error) {
		if (gerr != nil) != (werr != nil) || len(g) != len(w) {
			t.Fatalf("shards=%d cutoff=%d: %s(%v): (%d entries, %v) live, (%d entries, %v) offline", shards, c, name, id, len(g), gerr, len(w), werr)
		}
		for q := range g {
			if g[q] != w[q] {
				t.Fatalf("shards=%d cutoff=%d: %s(%v)[%d] = %+v live, %+v offline", shards, c, name, id, q, g[q], w[q])
			}
		}
	}
	for _, id := range sample(3) {
		g, gerr := got.GreatestPredecessors(id)
		w, werr := want.GreatestPredecessors(id)
		sameCut("GreatestPredecessors", id, g, w, gerr, werr)
		g, gerr = got.GreatestConcurrent(id)
		w, werr = want.GreatestConcurrent(id)
		sameCut("GreatestConcurrent", id, g, w, gerr, werr)
	}
}

// TestReplayCompoundQueries pins the compound query surface against the live
// monitor: the greatest-predecessor and greatest-concurrent cuts of sampled
// events must match at a mid-trace cutoff.
func TestReplayCompoundQueries(t *testing.T) {
	tr := workload.RandomSparse(8, 3, 400, 11)
	factory := func() hct.Config {
		return hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()}
	}
	dir := t.TempDir()
	boundaries := buildWAL(t, dir, tr, 3, len(tr.Events)/2)
	st, err := replay.Open(dir, replay.Options{NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c := boundaries[len(boundaries)/2]
	v, err := st.ViewAt(c)
	if err != nil {
		t.Fatal(err)
	}
	live, err := monitor.New(tr.NumProcs, factory())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.DeliverBatch(tr.Events[:c]); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 30; k++ {
		id := tr.Events[r.Int63n(int64(c))].ID
		gp, gerr := v.GreatestPredecessors(id)
		wp, werr := live.GreatestPredecessors(id)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("GreatestPredecessors(%v): err %v, live %v", id, gerr, werr)
		}
		for q := range gp {
			if gp[q] != wp[q] {
				t.Fatalf("GreatestPredecessors(%v)[%d] = %+v, live %+v", id, q, gp[q], wp[q])
			}
		}
		gc, gerr := v.GreatestConcurrent(id)
		wc, werr := live.GreatestConcurrent(id)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("GreatestConcurrent(%v): err %v, live %v", id, gerr, werr)
		}
		for q := range gc {
			if gc[q] != wc[q] {
				t.Fatalf("GreatestConcurrent(%v)[%d] = %+v, live %+v", id, q, gc[q], wc[q])
			}
		}
	}
}

// TestReplayCutoffBeyondHistory pins the error surface: a cutoff past the
// recorded history must fail cleanly (after one refresh attempt), and
// CutoffLatest must land exactly on the recorded event count.
func TestReplayCutoffBeyondHistory(t *testing.T) {
	tr := workload.RandomSparse(4, 2, 100, 7)
	dir := t.TempDir()
	buildWAL(t, dir, tr, 1, 0)
	st, err := replay.Open(dir, replay.Options{NewConfig: func() hct.Config {
		return hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.ViewAt(uint64(len(tr.Events)) + 1); err == nil {
		t.Fatal("ViewAt past history succeeded")
	}
	v, err := st.ViewAt(replay.CutoffLatest)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cutoff() != uint64(len(tr.Events)) {
		t.Fatalf("CutoffLatest resolved to %d, want %d", v.Cutoff(), len(tr.Events))
	}
	// The zero cutoff is a valid (empty) view.
	v0, err := st.ViewAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v0.Timestamp(tr.Events[0].ID); ok {
		t.Fatal("empty view exposes an event")
	}
}

// TestReplayRejectedRunKeepsPrefix pins the shared engine's bookkeeping when
// a recorded run is rejected part-way (a journal no valid daemon would have
// written): the accepted prefix of the run stays materialized and counted
// exactly, so views at or below it are served and the next attempt resumes at
// the offending event rather than re-feeding the prefix.
func TestReplayRejectedRunKeepsPrefix(t *testing.T) {
	unary := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	dir := t.TempDir()
	writeWAL(t, dir, 2,
		[]model.Event{unary(0, 1), unary(1, 1)},
		[]model.Event{unary(0, 2), unary(0, 2), unary(1, 2)}) // duplicate at global position 3
	st, err := replay.Open(dir, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := st.ViewAt(5); !errors.Is(err, model.ErrDeliverDuplicate) {
			t.Fatalf("attempt %d: ViewAt(5) = %v, want the duplicate rejection", attempt, err)
		}
	}
	v, err := st.ViewAt(3)
	if err != nil {
		t.Fatalf("ViewAt(3) over the accepted prefix: %v", err)
	}
	if got := v.Stats(300).Events; got != 3 {
		t.Fatalf("prefix view holds %d events, want 3", got)
	}
	if _, ok := v.Timestamp(unary(0, 2).ID); !ok {
		t.Fatal("accepted prefix of the rejected run is not queryable")
	}
	if _, ok := v.Timestamp(unary(1, 2).ID); ok {
		t.Fatal("event after the rejected one was materialized")
	}
}
