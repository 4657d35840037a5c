package replay_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestReplayWhileIngest drives the replay plane against a WAL that a live
// monitor is appending to and compacting underneath it — the deployment
// shape of poetd -wal serving QUERY@ while ingesting. Readers repeatedly
// open the chain (and refresh a long-lived store), materialize the newest
// view, and cross-check sampled precedence answers against precomputed
// Fidge/Mattern clocks, which are delivery-order independent and therefore
// valid at every cutoff. A torn or misread segment would surface as a
// disagreement, an open error, or (under -race) a data race.
func TestReplayWhileIngest(t *testing.T) {
	tr := workload.RandomSparse(8, 3, 2000, 21)
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	fmClock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		fmClock[st.Event.ID] = st.Clock
	}
	factory := func() hct.Config {
		return hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()}
	}

	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever, SnapshotEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	live, err := monitor.NewWithOptions(tr.NumProcs, factory(), hct.PipelineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	var done atomic.Bool
	var wg sync.WaitGroup

	// Writer: journal + deliver the trace in small runs, with automatic
	// snapshot compactions rotating segments underneath the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		r := rand.New(rand.NewSource(1))
		for lo := 0; lo < len(tr.Events); {
			hi := lo + 1 + r.Intn(40)
			if hi > len(tr.Events) {
				hi = len(tr.Events)
			}
			if err := l.AppendRun(tr.Events[lo:hi]); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			if err := live.DeliverBatch(tr.Events[lo:hi]); err != nil {
				t.Errorf("DeliverBatch: %v", err)
				return
			}
			lo = hi
		}
	}()

	verify := func(v *replay.View, r *rand.Rand) {
		wm := v.Watermark()
		for k := 0; k < 50; k++ {
			p1, p2 := r.Intn(len(wm)), r.Intn(len(wm))
			if wm[p1] == 0 || wm[p2] == 0 {
				continue
			}
			e := model.EventID{Process: model.ProcessID(p1), Index: model.EventIndex(1 + r.Int31n(wm[p1]))}
			f := model.EventID{Process: model.ProcessID(p2), Index: model.EventIndex(1 + r.Int31n(wm[p2]))}
			got, err := v.Precedes(e, f)
			if err != nil {
				t.Errorf("cutoff=%d: Precedes(%v,%v): %v", v.Cutoff(), e, f, err)
				return
			}
			if want := fm.Precedes(e, fmClock[e], f, fmClock[f]); got != want {
				t.Errorf("cutoff=%d: Precedes(%v,%v) = %v, Fidge/Mattern %v", v.Cutoff(), e, f, got, want)
				return
			}
		}
	}

	// Reader A: fresh open every iteration (cold-start shape, exercises the
	// open-under-compaction retry).
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		for !done.Load() {
			st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			v, err := st.ViewAt(replay.CutoffLatest)
			if err != nil {
				t.Errorf("ViewAt(latest): %v", err)
				st.Close()
				return
			}
			verify(v, r)
			st.Close()
		}
	}()

	// Reader B: one long-lived store following the daemon by refresh
	// (poetd's own replay plane shape).
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer st.Close()
		r := rand.New(rand.NewSource(3))
		for !done.Load() {
			v, err := st.ViewAt(replay.CutoffLatest)
			if err != nil {
				t.Errorf("ViewAt(latest): %v", err)
				return
			}
			verify(v, r)
		}
	}()

	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// After the dust settles the full history must replay to the complete
	// computation.
	st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Events() != uint64(len(tr.Events)) {
		t.Fatalf("final chain records %d events, want %d", st.Events(), len(tr.Events))
	}
	v, err := st.ViewAt(replay.CutoffLatest)
	if err != nil {
		t.Fatal(err)
	}
	live.IngestBarrier()
	for _, e := range tr.Events {
		want, okL := live.Timestamp(e.ID)
		got, okR := v.Timestamp(e.ID)
		if okL != okR || (okL && !sameTimestamp(got, want)) {
			t.Fatalf("final Timestamp(%v): replay (%v,%v) vs live (%v,%v)", e.ID, got, okR, want, okL)
		}
	}
}

// TestReplayWhileIngestLive is the same deployment with the daemon's own
// history plane: views over the store the lanes are filling (OpenLive).
// A 4-lane pipelined monitor ingests a ring whose every column crosses page
// boundaries and whose processes roll over to new keyframes while readers
// hold views frozen at early cutoffs — behind the live watermark on purpose —
// and re-check them against the Fidge/Mattern oracle: precedence answers,
// every vector a cell or note decodes to, and that the first event above each
// view's watermark stays unknown however far the store has grown. The cache
// holds two views, so most cutoffs are rewinds.
func TestReplayWhileIngestLive(t *testing.T) {
	tr := workload.Ring(24, 140, false) // ≥560 events per process: three pages, two or more keyframes each
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	fmClock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		fmClock[st.Event.ID] = st.Clock
	}

	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	live, err := monitor.NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()}, hct.PipelineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	hist.SetMaxCachedViews(2)

	var dispatched atomic.Int64 // events journaled, flushed and handed to the planner
	var rounds atomic.Int64     // views materialized by the readers while the writer ran
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer dispatched.Store(-1)
		r := rand.New(rand.NewSource(1))
		for lo := 0; lo < len(tr.Events); {
			hi := min(lo+1+r.Intn(61), len(tr.Events)) // odd sizes: pages are added mid-run
			run := tr.Events[lo:hi]
			if err := l.AppendRun(run); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			if err := l.Sync(); err != nil { // SyncNever buffers: let the chain reader see the run
				t.Errorf("Sync: %v", err)
				return
			}
			if err := live.DeliverBatchAsync(run); err != nil {
				t.Errorf("DeliverBatchAsync: %v", err)
				return
			}
			dispatched.Store(int64(hi))
			lo = hi
		}
	}()

	verify := func(v *replay.View, r *rand.Rand) bool {
		wm := v.Watermark()
		for p, n := range wm {
			above := model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(n + 1)}
			if _, ok := v.Timestamp(above); ok {
				t.Errorf("cutoff=%d: %v is above the view's watermark and visible", v.Cutoff(), above)
				return false
			}
		}
		for k := 0; k < 40; k++ {
			p1, p2 := r.Intn(len(wm)), r.Intn(len(wm))
			if wm[p1] == 0 || wm[p2] == 0 {
				continue
			}
			e := model.EventID{Process: model.ProcessID(p1), Index: model.EventIndex(1 + r.Int31n(wm[p1]))}
			f := model.EventID{Process: model.ProcessID(p2), Index: model.EventIndex(1 + r.Int31n(wm[p2]))}
			got, err := v.Precedes(e, f)
			if err != nil {
				t.Errorf("cutoff=%d: Precedes(%v,%v): %v", v.Cutoff(), e, f, err)
				return false
			}
			if want := fm.Precedes(e, fmClock[e], f, fmClock[f]); got != want {
				t.Errorf("cutoff=%d: Precedes(%v,%v) = %v, Fidge/Mattern %v", v.Cutoff(), e, f, got, want)
				return false
			}
			ts, ok := v.Timestamp(f)
			if !ok {
				t.Errorf("cutoff=%d: %v below the watermark has no timestamp", v.Cutoff(), f)
				return false
			}
			if ts.Cluster == nil {
				if !ts.Full.Equal(fmClock[f]) {
					t.Errorf("cutoff=%d: %v decodes to %v, Fidge/Mattern %v", v.Cutoff(), f, ts.Full, fmClock[f])
					return false
				}
				continue
			}
			for i, q := range ts.Cluster.Members {
				if ts.Proj[i] != fmClock[f][q] {
					t.Errorf("cutoff=%d: %v projection[%d] = %d, Fidge/Mattern %d", v.Cutoff(), f, q, ts.Proj[i], fmClock[f][q])
					return false
				}
			}
		}
		return true
	}

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var pins []*replay.View
			for {
				d := dispatched.Load()
				if d < 0 {
					return
				}
				if d < 2 {
					runtime.Gosched()
					continue
				}
				// Early cutoffs: dispatched, so one barrier at most covers them.
				v, err := hist.ViewAt(uint64(1 + r.Int63n(d/2)))
				if err != nil {
					t.Errorf("ViewAt: %v", err)
					return
				}
				rounds.Add(1)
				if len(pins) < 6 {
					pins = append(pins, v)
				} else {
					pins[r.Intn(len(pins))] = v
				}
				for _, p := range pins {
					if !verify(p, r) {
						return
					}
				}
				// The newest recorded run may not be dispatched yet; any other
				// failure is one.
				if v, err := hist.ViewAt(replay.CutoffLatest); err == nil {
					if !verify(v, r) {
						return
					}
				} else if !errors.Is(err, replay.ErrNotCovered) {
					t.Errorf("ViewAt(latest): %v", err)
					return
				}
			}
		}(int64(2 + g))
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	v, err := hist.ViewAt(uint64(len(tr.Events)))
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range v.Watermark() {
		if n < 2*256 {
			t.Fatalf("process %d holds %d events: its column no longer crosses two page boundaries", p, n)
		}
	}
	st := live.Pipeline().StoreStats()
	if st.Keyframes <= int64(tr.NumProcs) {
		t.Fatalf("%d keyframes over %d processes: no process rolled over to a second one", st.Keyframes, tr.NumProcs)
	}
	if rounds.Load() == 0 {
		t.Fatal("no reader materialized a view while the writer ran")
	}
	t.Logf("%d reader rounds beside %d events, %d keyframes and %d delta frames", rounds.Load(), len(tr.Events), st.Keyframes, st.DeltaFrames)
}

// TestReplayViewLifecycleRace is the regression test for the Store's view
// lifecycle audit (see the Store doc comment): a caller-pinned view must
// keep answering its frozen cutoff — correctly and race-free — while the
// store's single-slot FIFO cache evicts it, a live writer seals and
// compacts segments underneath, and a refresh swaps (closing) the chain,
// and the open files, the view was originally materialized from.
func TestReplayViewLifecycleRace(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 1500, 33)
	stamped, err := fm.StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	fmClock := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		fmClock[st.Event.ID] = st.Clock
	}
	factory := func() hct.Config {
		return hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()}
	}

	dir := t.TempDir()
	// SnapshotEvery well below the trace length: the writer compacts several
	// times, deleting segments the pinned views were materialized from.
	l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever, SnapshotEvery: 200})
	if err != nil {
		t.Fatal(err)
	}

	// Seed enough history for the first pinned view before readers start,
	// and flush so the chain reader can see it (SyncNever buffers writes).
	const seed = 300
	if err := l.AppendRun(tr.Events[:seed]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// One cache slot: every new cutoff evicts the previous view, so the
	// pinned views below survive on caller references alone.
	st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetMaxCachedViews(1)

	pinCut := st.Events()
	if pinCut == 0 {
		t.Fatal("no seeded history visible to the chain")
	}
	pinned, err := st.ViewAt(pinCut)
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup

	// Writer: appends the rest of the trace in small runs; automatic
	// compaction rotates and deletes segments underneath the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		r := rand.New(rand.NewSource(7))
		for lo := seed; lo < len(tr.Events); {
			hi := lo + 1 + r.Intn(30)
			if hi > len(tr.Events) {
				hi = len(tr.Events)
			}
			if err := l.AppendRun(tr.Events[lo:hi]); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			lo = hi
		}
	}()

	verify := func(v *replay.View, r *rand.Rand) bool {
		wm := v.Watermark()
		for k := 0; k < 40; k++ {
			p1, p2 := r.Intn(len(wm)), r.Intn(len(wm))
			if wm[p1] == 0 || wm[p2] == 0 {
				continue
			}
			e := model.EventID{Process: model.ProcessID(p1), Index: model.EventIndex(1 + r.Int31n(wm[p1]))}
			f := model.EventID{Process: model.ProcessID(p2), Index: model.EventIndex(1 + r.Int31n(wm[p2]))}
			got, err := v.Precedes(e, f)
			if err != nil {
				t.Errorf("cutoff=%d: Precedes(%v,%v): %v", v.Cutoff(), e, f, err)
				return false
			}
			if want := fm.Precedes(e, fmClock[e], f, fmClock[f]); got != want {
				t.Errorf("cutoff=%d: Precedes(%v,%v) = %v, Fidge/Mattern %v", v.Cutoff(), e, f, got, want)
				return false
			}
		}
		return true
	}

	// Reader A: hammers the first pinned view, which the cache evicted the
	// moment any later cutoff materialized.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(8))
		for !done.Load() {
			if !verify(pinned, r) {
				return
			}
		}
	}()

	// Reader B: refreshes and materializes ever-newer views (evicting each
	// other through the single cache slot), pinning some and re-verifying
	// older pins after further evictions and refreshes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(9))
		var pins []*replay.View
		for !done.Load() {
			v, err := st.ViewAt(replay.CutoffLatest)
			if err != nil {
				t.Errorf("ViewAt(latest): %v", err)
				return
			}
			if !verify(v, r) {
				return
			}
			if len(pins) < 4 {
				pins = append(pins, v)
			}
			for _, p := range pins {
				if !verify(p, r) {
					return
				}
			}
			// A rewind below the tally counts from the start of the log over
			// the one engine and, with one cache slot, is evicted immediately.
			if back, err := st.ViewAt(pinCut / 2); err != nil {
				t.Errorf("ViewAt(rewind): %v", err)
				return
			} else if !verify(back, r) {
				return
			}
		}
	}()

	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The pinned view still answers its frozen cutoff after the writer is
	// gone and every segment it was built from has long been compacted away.
	if _, err := st.ViewAt(replay.CutoffLatest); err != nil {
		t.Fatal(err)
	}
	if got := pinned.Cutoff(); got != pinCut {
		t.Fatalf("pinned view cutoff drifted to %d, want %d", got, pinCut)
	}
	r := rand.New(rand.NewSource(10))
	if !verify(pinned, r) {
		t.Fatal("pinned view verification failed after final refresh")
	}
}
