package replay_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// writeWAL journals runs into a fresh WAL directory, one record per run.
func writeWAL(t *testing.T, dir string, numProcs int, runs ...[]model.Event) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NumProcs: numProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func mergeOnFirst(maxCS int) func() hct.Config {
	return func() hct.Config {
		return hct.Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()}
	}
}

// TestLiveViewSplitsSyncPair pins the sync-half rule: at a cutoff that falls
// between the two halves of a synchronous pair the first half is recorded but
// was never published — the planner holds it for its partner — so both stores
// report it unknown; one event later both halves are present and mutually
// concurrent. The live store holds both halves throughout, and the offline
// store's engine the first half.
func TestLiveViewSplitsSyncPair(t *testing.T) {
	b := model.NewBuilder("", 3)
	b.Unary(0)
	b.Message(0, 2)
	first, second := b.Sync(0, 1)
	b.Unary(1)
	tr := b.Trace()
	split := uint64(0)
	for i, e := range tr.Events {
		if e.ID == first {
			split = uint64(i + 1)
		}
	}
	if tr.Events[split].ID != second {
		t.Fatalf("sync halves are not adjacent in the trace: %v", tr.Events)
	}

	dir := t.TempDir()
	writeWAL(t, dir, tr.NumProcs, tr.Events)
	factory := mergeOnFirst(2)
	offline, err := replay.Open(dir, replay.Options{NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()
	counting := liveStore(t, dir, tr, factory(), 2, replay.Options{})

	for _, st := range []*replay.Store{offline, counting} {
		v, err := st.ViewAt(split)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Timestamp(first); ok {
			t.Errorf("cutoff %d: first sync half %v is visible before its partner", split, first)
		}
		if _, err := v.Precedes(tr.Events[0].ID, first); !errors.Is(err, hct.ErrUnknownEvent) {
			t.Errorf("cutoff %d: Precedes(_, %v) = %v, want unknown event", split, first, err)
		}
		if w := v.Watermark(); w[first.Process] != int32(first.Index)-1 {
			t.Errorf("cutoff %d: watermark[%d] = %d, want %d", split, first.Process, w[first.Process], first.Index-1)
		}

		v, err = st.ViewAt(split + 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []model.EventID{first, second} {
			if _, ok := v.Timestamp(id); !ok {
				t.Errorf("cutoff %d: sync half %v missing", split+1, id)
			}
		}
		if conc, err := v.Concurrent(first, second); err != nil || !conc {
			t.Errorf("cutoff %d: Concurrent(%v,%v) = (%v,%v), want the halves mutually concurrent", split+1, first, second, conc, err)
		}
		if _, ok := v.Timestamp(tr.Events[split+1].ID); ok {
			t.Errorf("cutoff %d: event past the cutoff is visible", split+1)
		}
	}
}

// TestLiveViewRewind sweeps cutoffs in an order that makes the count walk
// restart — from the start of the log with a one-slot cache, from a cached
// view's checkpoint with the default one — on a synchronous-RPC trace with a
// third of the cutoffs placed between the halves of a pair, so the checkpoints
// it resumes from carry a held half. Every view must equal the offline
// store's, whose one engine was stamped from the log.
func TestLiveViewRewind(t *testing.T) {
	tr := workload.RPCBusiness(12, 3, 3, 150, 0.05, 4)
	factory := mergeOnFirst(4)
	dir := t.TempDir()
	buildWAL(t, dir, tr, 5, len(tr.Events)/2)
	offline, err := replay.Open(dir, replay.Options{NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()
	offline.SetMaxCachedViews(64)

	r := rand.New(rand.NewSource(6))
	var cutoffs []uint64
	for len(cutoffs) < 48 {
		c := 1 + r.Intn(len(tr.Events)-1)
		if len(cutoffs)%3 == 0 {
			for tr.Events[c-1].Kind != model.Sync || tr.Events[c].Partner != tr.Events[c-1].ID {
				c = 1 + (c+1)%(len(tr.Events)-1)
			}
		}
		cutoffs = append(cutoffs, uint64(c))
	}
	counted := map[int]int64{}
	for _, cached := range []int{1, 8} {
		tel := obs.NewTelemetry(obs.NewRegistry())
		counting := liveStore(t, dir, tr, factory(), 4, replay.Options{Obs: tel})
		counting.SetMaxCachedViews(cached)
		for _, c := range cutoffs {
			want, err := offline.ViewAt(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := counting.ViewAt(c)
			if err != nil {
				t.Fatalf("cache=%d ViewAt(%d): %v", cached, c, err)
			}
			compareEngines(t, tr, 4, got, want, r)
		}
		st := counting.HistoryStatus()
		if last := cutoffs[len(cutoffs)-1]; st.LastCutoff != last || st.EnginePosition != last {
			t.Errorf("cache=%d: status %+v after a view at %d", cached, st, last)
		}
		if st.CachedViews != cached {
			t.Errorf("cache=%d: %d views cached", cached, st.CachedViews)
		}
		counted[cached] = tel.HistoryCountedEvents.Value()
	}
	// A one-slot cache has one checkpoint to rewind to; eight must save work.
	if counted[8] >= counted[1] {
		t.Errorf("count walk decoded %d events with 8 cached views, %d with 1", counted[8], counted[1])
	}
}

// TestLiveViewNotCovered: the log records more than the live store was ever
// given — the journaled-then-not-delivered hazard. Cutoffs inside what the
// store holds are served; one past it fails with ErrNotCovered after a single
// barrier, and does not hang.
func TestLiveViewNotCovered(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 300, 2)
	fed := len(tr.Events) / 2
	dir := t.TempDir()
	writeWAL(t, dir, tr.NumProcs, tr.Events[:fed], tr.Events[fed:])

	live, err := monitor.NewWithOptions(tr.NumProcs, mergeOnFirst(4)(), hct.PipelineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.DeliverBatch(tr.Events[:fed]); err != nil {
		t.Fatal(err)
	}
	tel := obs.NewTelemetry(obs.NewRegistry())
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{Obs: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()

	if _, err := hist.ViewAt(uint64(fed)); err != nil {
		t.Fatalf("ViewAt(%d), all delivered: %v", fed, err)
	}
	for _, c := range []uint64{uint64(fed) + 1, replay.CutoffLatest} {
		if _, err := hist.HistoryAt(c); !errors.Is(err, replay.ErrNotCovered) {
			t.Fatalf("HistoryAt(%d) = %v, want ErrNotCovered", c, err)
		}
	}
	if got := tel.HistoryCoverWaits.Value(); got != 2 {
		t.Errorf("%d cover waits, want one per uncovered cutoff", got)
	}
	// The store catches up; the same cutoff is now served.
	if err := live.DeliverBatch(tr.Events[fed:]); err != nil {
		t.Fatal(err)
	}
	if _, err := hist.ViewAt(replay.CutoffLatest); err != nil {
		t.Fatalf("ViewAt(latest) after the store caught up: %v", err)
	}
}

// TestLiveViewRejectsDisorderedLog: a log no planner would have delivered (a
// duplicate index) stops the count walk at the offending event, on every
// attempt, and cutoffs below it are still served.
func TestLiveViewRejectsDisorderedLog(t *testing.T) {
	unary := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	dir := t.TempDir()
	writeWAL(t, dir, 2,
		[]model.Event{unary(0, 1), unary(1, 1)},
		[]model.Event{unary(0, 2), unary(0, 2), unary(1, 2)}) // duplicate at global position 3
	live, err := monitor.New(2, hct.Config{MaxClusterSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.DeliverBatch([]model.Event{unary(0, 1), unary(1, 1), unary(0, 2), unary(1, 2)}); err != nil {
		t.Fatal(err)
	}
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := hist.ViewAt(5); err == nil || errors.Is(err, replay.ErrNotCovered) {
			t.Fatalf("attempt %d: ViewAt(5) = %v, want the delivery-order rejection", attempt, err)
		}
	}
	v, err := hist.ViewAt(3)
	if err != nil {
		t.Fatalf("ViewAt(3) over the valid prefix: %v", err)
	}
	if _, ok := v.Timestamp(unary(0, 2).ID); !ok {
		t.Error("valid prefix is not queryable")
	}
	if _, ok := v.Timestamp(unary(1, 2).ID); ok {
		t.Error("event after the rejected one is visible")
	}
}

// stallTracer is a BatchTracer whose Begin blocks on lane 0 until released
// (as in hct's TestLaneQueueBounded).
type stallTracer struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *stallTracer) Begin(_ string, lane, _ int) int {
	if lane == 0 {
		s.once.Do(func() { close(s.entered) })
		<-s.release
	}
	return 0
}
func (s *stallTracer) End(int)                                             {}
func (s *stallTracer) Span(string, int, int, time.Time, time.Duration) int { return 0 }

// TestLiveViewWaitsForStalledLane: the log holds a run that is dispatched but
// that a stalled lane has not stamped. A view over it waits — for exactly that,
// in the barrier — and answers once the lane resumes; a cutoff below the stall
// is served meanwhile.
func TestLiveViewWaitsForStalledLane(t *testing.T) {
	tr := workload.Ring(8, 6, false)
	half := len(tr.Events) / 2
	dir := t.TempDir()
	writeWAL(t, dir, tr.NumProcs, tr.Events[:half], tr.Events[half:])

	live, err := monitor.NewWithOptions(tr.NumProcs, mergeOnFirst(2)(), hct.PipelineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.DeliverBatch(tr.Events[:half]); err != nil {
		t.Fatal(err)
	}
	tel := obs.NewTelemetry(obs.NewRegistry())
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{Obs: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()

	st := &stallTracer{entered: make(chan struct{}), release: make(chan struct{})}
	if err := live.Pipeline().DispatchAsync(tr.Events[half:], st); err != nil {
		t.Fatal(err)
	}
	<-st.entered

	if _, err := hist.ViewAt(uint64(half)); err != nil {
		t.Fatalf("ViewAt(%d) below the stall: %v", half, err)
	}
	type result struct {
		v   *replay.View
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := hist.ViewAt(uint64(len(tr.Events)))
		done <- result{v, err}
	}()
	for tel.HistoryCoverWaits.Value() == 0 {
		runtime.Gosched()
	}
	select {
	case r := <-done:
		t.Fatalf("ViewAt returned (%v, %v) while lane 0 was stalled", r.v, r.err)
	case <-time.After(20 * time.Millisecond): // cannot fail a correct store
	}
	close(st.release)
	r := <-done
	if r.err != nil {
		t.Fatalf("ViewAt after the lane resumed: %v", r.err)
	}
	last := tr.Events[len(tr.Events)-1].ID
	if _, ok := r.v.Timestamp(last); !ok {
		t.Errorf("view at the end of the log does not hold %v", last)
	}
	if p, err := r.v.Precedes(tr.Events[0].ID, last); err != nil || !p {
		t.Errorf("Precedes(first, last) = (%v,%v) on a ring", p, err)
	}
}

// planGate is a BatchTracer that holds the planner goroutine inside the plan
// span of the run it traces until released.
type planGate struct {
	entered chan struct{}
	release chan struct{}
}

func (g *planGate) Begin(name string, _, _ int) int {
	if name == "plan" {
		close(g.entered)
		<-g.release
	}
	return 0
}
func (g *planGate) End(int)                                             {}
func (g *planGate) Span(string, int, int, time.Time, time.Duration) int { return 0 }

// TestLiveViewWaitsForCollectorInEnqueue is ErrNotCovered's old second home on
// a healthy daemon: the collector has journaled a run and sits in enqueue,
// behind a plan queue (depth 1) whose planner is stalled, so the log names
// events no Barrier can see yet. The collector admits, journals and enqueues
// under one hold of the admission lock, so a QUERY@latest issued then waits on
// that lock and then on the barrier, and answers; it never reports
// ErrNotCovered.
func TestLiveViewWaitsForCollectorInEnqueue(t *testing.T) {
	tr := workload.Ring(8, 6, false)
	half := len(tr.Events) / 2
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	live, err := monitor.NewWithOptions(tr.NumProcs, mergeOnFirst(2)(), hct.PipelineOptions{Shards: 2, PlanQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	tel := obs.NewTelemetry(obs.NewRegistry())
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{Obs: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	srv := serveDefault(t, monitor.TenantResources{Monitor: live, Journal: wlog, History: hist})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *monitor.ClientV2 {
		c, err := monitor.DialV2(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	producer, querier := dial(), dial()
	defer producer.Close()
	defer querier.Close()

	// The first run, journaled and dispatched by hand so that it can carry
	// the gate: the planner stalls inside it and the plan queue is full.
	gate := &planGate{entered: make(chan struct{}), release: make(chan struct{})}
	if err := wlog.AppendRun(tr.Events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := live.Pipeline().DispatchAsync(tr.Events[:half], gate); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	// The second run, through the collector: once the log holds it, the
	// collector is in enqueue (or a step from it), admission lock in hand.
	reported := make(chan error, 1)
	go func() { reported <- producer.ReportBatch(tr.Events[half:]) }()
	for wlog.Appended() < uint64(len(tr.Events)) {
		runtime.Gosched()
	}

	first, last := tr.Events[0].ID, tr.Events[len(tr.Events)-1].ID
	type answer struct {
		res []monitor.QueryResult
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		res, err := querier.QueryBatchAt(replay.CutoffLatest, []monitor.Query{{Op: monitor.OpPrecedes, A: first, B: last}})
		answered <- answer{res, err}
	}()
	for tel.HistoryCoverWaits.Value() == 0 {
		runtime.Gosched()
	}
	select {
	case a := <-answered:
		t.Fatalf("QUERY@latest answered (%v, %v) while the journaled run was not enqueued", a.res, a.err)
	case <-time.After(20 * time.Millisecond): // cannot fail a correct store
	}
	close(gate.release)
	a := <-answered
	if a.err != nil || len(a.res) != 1 || a.res[0].Err != nil || !a.res[0].True {
		t.Fatalf("QUERY@latest Precedes(first, last) on a ring = (%+v, %v), want true", a.res, a.err)
	}
	if err := <-reported; err != nil {
		t.Fatalf("ReportBatch: %v", err)
	}
}

// logMapping matches a line of /proc/self/maps that maps a WAL file.
var logMapping = regexp.MustCompile(`(?m)/(wal-[0-9a-f]{16}\.log|snap-[0-9a-f]{16}\.snap)( \(deleted\))?$`)

// TestHistoryBytesPerEvent is the history plane's standing budget, beside
// hct's TestStoreBytesPerEvent and on the same ring (spmd-stream's, 607k
// events): over a daemon's store, serving 64 ascending and 8 rewound cutoffs
// grows the live heap by at most 2 B/event — what it keeps is the cached
// views' watermark vectors and one tally — and carves nothing into the store.
// A store of its own, which the daemon once kept for history, held a second
// copy of the store up to the cutoff: ≈104 B/event on this trace. Each cutoff
// allocates its view and nothing per recorded run, and no log file is left
// mapped [reads-below-valid].
func TestHistoryBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 600k events")
	}
	tr := workload.Ring(300, 330, false)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, err := monitor.NewWithOptions(tr.NumProcs, mergeOnFirst(13)(), hct.PipelineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for lo := 0; lo < len(tr.Events); lo += 1024 {
		run := tr.Events[lo:min(lo+1024, len(tr.Events))]
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
		if err := live.DeliverBatch(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	hist, err := replay.OpenLive(dir, live.Pipeline(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()

	n := uint64(len(tr.Events))
	r := rand.New(rand.NewSource(1))
	probe := func(c uint64) {
		v, err := hist.ViewAt(c)
		if err != nil {
			t.Fatalf("ViewAt(%d): %v", c, err)
		}
		e, f := tr.Events[r.Int63n(int64(c))].ID, tr.Events[r.Int63n(int64(c))].ID
		if _, err := v.Precedes(e, f); err != nil {
			t.Fatalf("cutoff %d: Precedes(%v,%v): %v", c, e, f, err)
		}
	}
	storeBefore := live.Pipeline().StoreStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := uint64(1); k <= 64; k++ {
		probe(k * n / 64)
	}
	for k := uint64(1); k <= 8; k++ {
		probe(k * n / 9)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	perCutoff := (after.TotalAlloc - before.TotalAlloc) / 72
	t.Logf("%d events, 72 views: %+.3f heap B/event, %d B allocated per cutoff", n, perEvent, perCutoff)
	if perEvent > 2 {
		t.Errorf("history holds %.2f heap B/event, budget 2", perEvent)
	}
	// A view's own watermark is 4 B per process; the walk decodes into the
	// chain's buffer, so no run it reads allocates.
	if budget := uint64(16 * tr.NumProcs); perCutoff > budget {
		t.Errorf("serving a cutoff allocates %d B, budget %d", perCutoff, budget)
	}
	if runtime.GOOS == "linux" {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if m := logMapping.Find(maps); m != nil {
			t.Errorf("the history plane keeps the log mapped: %s", m)
		}
	}
	if got := live.Pipeline().StoreStats(); got != storeBefore {
		t.Errorf("serving history carved into the store: %+v -> %+v", storeBefore, got)
	}
	runtime.KeepAlive(hist)
	runtime.KeepAlive(tr)
}

// TestHistoryReadBytes pins poetd_history_read_bytes_total for a fixed log and
// a fixed sequence of cutoffs. A chain scan reads its files whole, as long as
// they were at the scan; a count walk reads exactly the records that hold the
// events it counts, once each, and a cached view reads nothing
// [reads-below-valid].
func TestHistoryReadBytes(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 500, 21)
	const per = 100
	var runs [][]model.Event
	for lo := 0; lo < len(tr.Events); lo += per {
		runs = append(runs, tr.Events[lo:min(lo+per, len(tr.Events))])
	}
	recBytes := func(from, to uint64) (n int64) { // the records holding events [from, to)
		for k := from / per; k*per < to; k++ {
			n += 12 // length, CRC and count
			for _, e := range runs[k] {
				n += 9 // kind, process, index
				if e.Kind != model.Unary {
					n += 8 // the partner
				}
			}
		}
		return n
	}
	dir := t.TempDir()
	first := 10
	writeWAL(t, dir, tr.NumProcs, runs[:first]...)
	segSize := func() int64 {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("want one segment, found %q (%v)", paths, err)
		}
		st, err := os.Stat(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	tel := obs.NewTelemetry(obs.NewRegistry())
	hist := liveStore(t, dir, tr, mergeOnFirst(4)(), 2, replay.Options{Obs: tel})
	want := segSize()
	check := func(what string) {
		t.Helper()
		if got := tel.HistoryReadBytes.Value(); got != want {
			t.Fatalf("%s: read %d bytes of the log, want %d", what, got, want)
		}
		if got := hist.HistoryStatus().ReadBytes; got != want {
			t.Fatalf("%s: /statusz reports %d bytes read, want %d", what, got, want)
		}
	}
	check("opening the chain")
	n := uint64(len(tr.Events))
	for _, step := range []struct {
		cutoff, walkFrom uint64 // the walk covers [walkFrom, cutoff); walkFrom == cutoff: cached
		appendRest       bool
	}{
		{cutoff: 250, walkFrom: 0},
		{cutoff: 250, walkFrom: 250},
		{cutoff: 700, walkFrom: 250},
		{cutoff: 100, walkFrom: 0},   // a rewind below every cached view starts over
		{cutoff: 500, walkFrom: 250}, // and the next resumes from the view at 250
		{cutoff: n, walkFrom: 700, appendRest: true},
	} {
		what := fmt.Sprintf("a view at %d", step.cutoff)
		if step.appendRest {
			l, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range runs[first:] {
				if err := l.AppendRun(run); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want += segSize() // the refresh rescans the grown segment
			what += " past the last refresh"
		}
		if _, err := hist.ViewAt(step.cutoff); err != nil {
			t.Fatal(err)
		}
		if step.walkFrom < step.cutoff {
			want += recBytes(step.walkFrom, step.cutoff)
		}
		check(what)
	}
}

// TestHistoryReadBytesPerTenant holds a tenant's /statusz read_bytes to what
// its own history plane read: two durable tenants share the daemon's
// telemetry, a QUERY@ cutoff is served on one, and the other's read_bytes
// stays at what its chain scan read when it opened, while
// poetd_history_read_bytes_total is the sum of the two.
func TestHistoryReadBytesPerTenant(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 500, 21)
	tel := obs.NewTelemetry(obs.NewRegistry())
	var hist [2]*replay.Store
	var opened [2]int64
	for i := range hist {
		dir := t.TempDir()
		writeWAL(t, dir, tr.NumProcs, tr.Events[:250], tr.Events[250:])
		hist[i] = liveStore(t, dir, tr, mergeOnFirst(4)(), 1, replay.Options{Obs: tel})
		if opened[i] = hist[i].HistoryStatus().ReadBytes; opened[i] <= 0 {
			t.Fatalf("tenant %d: %d bytes read by the chain scan at open", i, opened[i])
		}
	}
	if _, err := hist[0].HistoryAt(400); err != nil {
		t.Fatal(err)
	}
	queried, other := hist[0].HistoryStatus().ReadBytes, hist[1].HistoryStatus().ReadBytes
	if queried <= opened[0] || other != opened[1] {
		t.Errorf("after a QUERY@ cutoff on tenant 0: read_bytes %d (%d at open) and, on tenant 1, %d (%d at open)", queried, opened[0], other, opened[1])
	}
	if total := tel.HistoryReadBytes.Value(); total != queried+other {
		t.Errorf("poetd_history_read_bytes_total = %d, the tenants read %d + %d", total, queried, other)
	}
}
