package monitor

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func newTestMonitor(t *testing.T, n int) *Monitor {
	t.Helper()
	m, err := New(n, hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorDeliverAndQuery(t *testing.T) {
	b := model.NewBuilder("m", 3)
	u := b.Unary(0)
	s := b.Send(0)
	r := b.Receive(1, s)
	b.Sync(1, 2)
	tr := b.Trace()

	m := newTestMonitor(t, 3)
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	got, err := m.Precedes(u, r)
	if err != nil || !got {
		t.Fatalf("Precedes(u,r) = %v,%v", got, err)
	}
	got, err = m.Concurrent(u, u)
	if err != nil || got {
		t.Fatalf("Concurrent(u,u) = %v,%v", got, err)
	}
	if _, ok := m.Timestamp(r); !ok {
		t.Fatal("missing timestamp")
	}
	if ts, ok := m.Timestamp(s); !ok || ts.Kind != model.Send {
		t.Fatalf("Timestamp(s) = %v,%v", ts, ok)
	}
	if _, ok := m.Timestamp(model.EventID{Process: 2, Index: 9}); ok || m.Has(model.EventID{Process: 2, Index: 9}) {
		t.Fatal("the store invented an event")
	}
	st := m.Stats(300)
	if st.Events != tr.NumEvents() || st.PendingSends != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StorageInts <= 0 || st.LiveClusters <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if m.NumProcs() != 3 {
		t.Fatalf("NumProcs = %d", m.NumProcs())
	}
}

func TestMonitorDeliverAllReportsPosition(t *testing.T) {
	bad := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	m := newTestMonitor(t, 2)
	if err := m.DeliverAll(bad); err == nil {
		t.Fatal("receive-before-send accepted")
	}
}

// perProcessStreams splits a trace into per-process event sequences.
func perProcessStreams(tr *model.Trace) [][]model.Event {
	streams := make([][]model.Event, tr.NumProcs)
	for _, e := range tr.Events {
		streams[e.ID.Process] = append(streams[e.ID.Process], e)
	}
	return streams
}

func TestCollectorReordersInterleavedStreams(t *testing.T) {
	spec, ok := workload.Find("pvm/treereduce-43")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()

	// Reference: in-order delivery.
	ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 10, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}

	// Adversarial interleaving: pick a random process's next event each
	// step, preserving only per-process order.
	r := rand.New(rand.NewSource(5))
	streams := perProcessStreams(tr)
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 10, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(m)
	pos := make([]int, len(streams))
	remaining := tr.NumEvents()
	for remaining > 0 {
		p := r.Intn(len(streams))
		if pos[p] >= len(streams[p]) {
			continue
		}
		if err := c.Submit(streams[p][pos[p]]); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		pos[p]++
		remaining--
	}
	if c.Held() != 0 {
		t.Fatalf("collector still holds %d events", c.Held())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The delivered order may differ from the original trace, but the
	// precedence relation must be identical.
	refStats := ref.Stats(300)
	gotStats := m.Stats(300)
	if gotStats.Events != refStats.Events {
		t.Fatalf("event counts differ: %+v vs %+v", gotStats, refStats)
	}
	for trial := 0; trial < 2000; trial++ {
		e := tr.Events[r.Intn(len(tr.Events))].ID
		f := tr.Events[r.Intn(len(tr.Events))].ID
		want, err1 := ref.Precedes(e, f)
		got, err2 := m.Precedes(e, f)
		if err1 != nil || err2 != nil {
			t.Fatalf("query errors: %v %v", err1, err2)
		}
		if want != got {
			t.Fatalf("Precedes(%v,%v): reordered %v vs in-order %v", e, f, got, want)
		}
	}
}

func TestCollectorConcurrentProducers(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-36")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 12, Decider: strategy.NewMergeOnNth(2)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(m)
	streams := perProcessStreams(tr)
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for _, stream := range streams {
		stream := stream
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range stream {
				if err := c.Submit(e); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Held() != 0 {
		t.Fatalf("collector still holds %d events", c.Held())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(300).Events; got != tr.NumEvents() {
		t.Fatalf("delivered %d of %d events", got, tr.NumEvents())
	}
}

func TestCollectorErrors(t *testing.T) {
	m := newTestMonitor(t, 2)
	c := NewCollector(m)
	if err := c.Submit(model.Event{ID: model.EventID{Process: 9, Index: 1}, Kind: model.Unary}); err == nil {
		t.Fatal("out-of-range process accepted")
	}
	e := model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}
	if err := c.Submit(e); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(e); err == nil {
		t.Fatal("replayed event accepted")
	}
	// Buffered duplicate (not yet delivered).
	hold := model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 9}}
	if err := c.Submit(hold); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(hold); err == nil {
		t.Fatal("duplicate buffered event accepted")
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close with stranded events succeeded")
	}
	if err := c.Submit(e); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v", err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v", err)
	}
}

func TestCollectorCleanClose(t *testing.T) {
	m := newTestMonitor(t, 1)
	c := NewCollector(m)
	if err := c.Submit(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("clean close failed: %v", err)
	}
}

func TestCollectorSyncArrivalOrders(t *testing.T) {
	// Both submission orders of a sync pair must work.
	for _, firstP := range []int{0, 1} {
		b := model.NewBuilder("sync", 2)
		p, q := b.Sync(0, 1)
		tr := b.Trace()
		m := newTestMonitor(t, 2)
		c := NewCollector(m)
		evs := tr.Events
		if firstP == 1 {
			evs = []model.Event{evs[1], evs[0]}
		}
		for _, e := range evs {
			if err := c.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		conc, err := m.Concurrent(p, q)
		if err != nil || !conc {
			t.Fatalf("sync halves: Concurrent = %v, %v", conc, err)
		}
	}
}

func TestNewPropagatesConfigErrors(t *testing.T) {
	if _, err := New(0, hct.Config{MaxClusterSize: 2}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestAccountingIsOneSnapshot reads the accounting in a loop while two lanes
// ingest. Above one lane the planner goroutine plans whole batches between
// two lock holds, so counters read under separate holds can describe several
// moments at once (the probe behind this test: 14 torn Stats in ≈283k reads).
// Every read must agree with itself: the storage is the closed form of its own
// counters, its partition accounts for every process, and the ratio is its
// own storage over its own events.
func TestAccountingIsOneSnapshot(t *testing.T) {
	const procs, fixed, frame = 64, 300, 1024
	tr := workload.RandomUniform(procs, 200000, 1)
	m, err := NewWithOptions(procs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnNth(2)}, hct.PipelineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 1)
	go func() {
		var err error
		for lo := 0; lo < len(tr.Events) && err == nil; lo += frame {
			err = m.DeliverBatchAsync(tr.Events[lo:min(lo+frame, len(tr.Events))])
		}
		m.IngestBarrier()
		done <- err
	}()
	reads := 0
	for ingesting := true; ingesting; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false // and one read at quiescence
		default:
		}
		st := m.Stats(fixed)
		if want := hct.StorageInts(st.Events, st.ClusterReceives, fixed, st.MaxClusterSize); st.StorageInts != want {
			t.Fatalf("read %d: %+v: StorageInts %d, its own counters give %d", reads, st, st.StorageInts, want)
		}
		if st.ClusterReceives+st.MergedReceives > st.Events {
			t.Fatalf("read %d: %+v: more cluster receives than events", reads, st)
		}
		if st.LiveClusters+st.Merges != procs {
			t.Fatalf("read %d: %+v: %d live clusters after %d merges of %d processes", reads, st, st.LiveClusters, st.Merges, procs)
		}
		a := m.pipe.Result()
		want := 0.0
		if a.Events > 0 {
			want = float64(hct.StorageInts(a.Events, a.ClusterReceives, fixed, a.MaxClusterSize)) / (float64(a.Events) * fixed)
		}
		if got := a.AverageRatio(fixed); got != want {
			t.Fatalf("read %d: %+v: AverageRatio %v, its own storage over its own events %v", reads, a, got, want)
		}
	}
	if got := m.Stats(fixed).Events; got != len(tr.Events) {
		t.Fatalf("ingested %d of %d events", got, len(tr.Events))
	}
	t.Logf("%d reads of each during ingest", reads)
}
