package monitor

import (
	"io"
	"log/slog"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestTracedDeliveryIdenticalTimestamps is the tracing differential: the
// same shuffled stream delivered with a span trace on every batch must
// produce byte-identical timestamps to untraced delivery. Tracing observes
// the pipeline; it must never steer it.
func TestTracedDeliveryIdenticalTimestamps(t *testing.T) {
	tr := workload.RandomSparse(24, 4, 3000, 7)
	cfg := func() hct.Config {
		return hct.Config{MaxClusterSize: 7, Decider: strategy.NewMergeOnFirst()}
	}
	run := func(traced bool, shards int) *Monitor {
		m, err := NewWithOptions(tr.NumProcs, cfg(), hct.PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(42))
		shuffled := make([]model.Event, len(tr.Events))
		for to, from := range r.Perm(len(tr.Events)) {
			shuffled[to] = tr.Events[from]
		}
		c := NewCollector(m)
		for lo := 0; lo < len(shuffled); {
			hi := lo + 1 + r.Intn(200)
			if hi > len(shuffled) {
				hi = len(shuffled)
			}
			var batchTr *obs.Trace
			if traced {
				batchTr = obs.NewTrace(obs.OpIngest, "t", hi-lo, time.Now())
			}
			if _, err := c.submitBatchTraced(shuffled[lo:hi], batchTr); err != nil {
				t.Fatalf("submitBatchTraced[%d:%d]: %v", lo, hi, err)
			}
			batchTr.Finish(nil)
			lo = hi
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		m.IngestBarrier()
		return m
	}
	for _, shards := range []int{1, 4} {
		ref := run(false, shards)
		traced := run(true, shards)
		for _, e := range tr.Events {
			want, ok1 := ref.Timestamp(e.ID)
			got, ok2 := traced.Timestamp(e.ID)
			if !ok1 || !ok2 {
				t.Fatalf("shards=%d: timestamp for %v missing (ref=%v traced=%v)", shards, e.ID, ok1, ok2)
			}
			if !reflect.DeepEqual(want.Proj, got.Proj) || !reflect.DeepEqual(want.Full, got.Full) ||
				want.Kind != got.Kind {
				t.Fatalf("shards=%d: timestamps diverge at %v:\nref    %+v\ntraced %+v", shards, e.ID, want, got)
			}
		}
		ref.Close()
		traced.Close()
	}
}

// newTracedWALServer builds an instrumented, durable, always-sampling server:
// every batch gets a span trace, the WAL records append/fsync spans through
// the shared scope, and slow ops are wide-event logged to a discard logger.
func newTracedWALServer(t testing.TB, numProcs int, sync wal.SyncPolicy) (*Server, *obs.Telemetry) {
	t.Helper()
	m, err := New(numProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.NewTelemetry(obs.NewRegistry())
	tel.Sampler = obs.NewSampler(1e9) // sample every batch
	tel.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	scope := obs.NewSpanScope()
	wlog, err := wal.Open(t.TempDir(), wal.Options{
		NumProcs:    numProcs,
		Sync:        sync,
		AppendTimer: tel.WALAppend,
		FsyncTimer:  tel.WALFsync,
		Spans:       scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	srv := serveDefault(t, TenantResources{Monitor: m, Journal: wlog, Spans: scope}, ServerConfig{FixedVector: numProcs, Obs: tel})
	return srv, tel
}

// TestTraceSpanTreeEndToEnd drives a traced batch through the whole daemon
// stack — decode, queue, validate, WAL append + fsync, plan, stamp — and
// checks the resulting span tree: every stage present, correctly nested, and
// the root self time plus the top-level span durations equal to the batch
// duration (the acceptance invariant for a single-shard pipeline).
func TestTraceSpanTreeEndToEnd(t *testing.T) {
	tr := workload.RandomSparse(10, 3, 400, 3)
	srv, tel := newTracedWALServer(t, tr.NumProcs, wal.SyncAlways)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sess, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for lo := 0; lo < len(tr.Events); lo += 100 {
		hi := lo + 100
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	traces := tel.Traces.Snapshot(DefaultTenant, -1)
	if len(traces) == 0 {
		t.Fatal("no traces retained with an always-on sampler")
	}
	stageSeen := map[string]bool{}
	for _, batch := range traces {
		snap := batch.Snapshot()
		if snap.Tenant != DefaultTenant || snap.Kind != obs.OpIngest {
			t.Fatalf("trace attribution = %+v", snap)
		}
		if snap.Duration <= 0 {
			t.Fatalf("trace %d not finished", snap.ID)
		}
		var sum time.Duration
		var walk func(parent string, nodes []*obs.SpanNode)
		walk = func(parent string, nodes []*obs.SpanNode) {
			for _, n := range nodes {
				stageSeen[n.Name] = true
				if n.Name == "wal_fsync" && parent != "wal_append" {
					t.Fatalf("wal_fsync nested under %q, want wal_append", parent)
				}
				if n.Name == "stamp" && parent != "plan" {
					t.Fatalf("single-shard stamp nested under %q, want plan", parent)
				}
				if n.Dur < 0 {
					t.Fatalf("span %q still open in a finished trace", n.Name)
				}
				walk(n.Name, n.Children)
			}
		}
		walk("", snap.Spans)
		for _, n := range snap.Spans {
			sum += n.Dur
		}
		// The acceptance invariant: on a single-shard pipeline the stages
		// are sequential, so root self + Σ top-level spans == duration.
		if got := snap.Self + sum; got != snap.Duration {
			t.Fatalf("trace %d: self %v + spans %v = %v != duration %v",
				snap.ID, snap.Self, sum, got, snap.Duration)
		}
	}
	for _, stage := range []string{"decode", "queue", "validate", "wal_append", "wal_fsync", "plan", "stamp"} {
		if !stageSeen[stage] {
			t.Errorf("stage %q missing from every span tree (saw %v)", stage, stageSeen)
		}
	}
}

// TestMetricsExemplarResolvesToTrace checks the exemplar loop: the ingest
// histogram remembers the trace ID of the slowest traced batch per bucket,
// the OpenMetrics exposition renders it (the classic 0.0.4 format has no
// exemplar syntax and must stay clean), and the ID resolves to a retained
// span tree in the trace store — the /metrics → /tracez pivot.
func TestMetricsExemplarResolvesToTrace(t *testing.T) {
	tr := workload.RandomSparse(8, 2, 300, 9)
	srv, tel := newTracedWALServer(t, tr.NumProcs, wal.SyncNever)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ReportBatch(tr.Events); err != nil {
		t.Fatal(err)
	}

	snap := tel.IngestBatch.Snapshot()
	var id obs.TraceID
	for _, x := range snap.ExemplarID {
		if x != 0 {
			id = x
			break
		}
	}
	if id == 0 {
		t.Fatal("ingest histogram recorded no exemplar for a traced batch")
	}
	if tel.Traces.Find(id) == nil {
		t.Fatalf("exemplar trace %d not resolvable in the trace store", id)
	}
	var sb strings.Builder
	if err := tel.Registry.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="`) {
		t.Fatal("OpenMetrics exposition carries no exemplar annotation")
	}
	sb.Reset()
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "# {") {
		t.Fatal("classic exposition carries an exemplar annotation (breaks 0.0.4 scrapes)")
	}
}

// TestQuotaRejectionTraced pins the quota path's observability: a batch the
// tenant event quota rejects still finishes its span trace (started at
// decode), retains it in the trace store, and records an op carrying the
// trace ID and the quota error — over-quota batches, a likely incident
// cause, must be visible at /tracez rather than silently dropped.
func TestQuotaRejectionTraced(t *testing.T) {
	tel := obs.NewTelemetry(obs.NewRegistry())
	tel.Sampler = obs.NewSampler(1e9) // sample every batch
	srv, addr := startTenantServer(t, 4, ServerConfig{
		Obs: tel,
		Tenants: &TenantsConfig{
			New:                testTenantFactory(4),
			MaxEventsPerTenant: 2,
		},
	})
	defer srv.Close()

	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	within := []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
		{ID: model.EventID{Process: 0, Index: 2}, Kind: model.Unary},
	}
	if err := c.ReportBatch(within); err != nil {
		t.Fatalf("ReportBatch within quota: %v", err)
	}
	over := []model.Event{{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Unary}}
	if err := c.ReportBatch(over); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("ReportBatch over quota = %v, want quota error", err)
	}

	var rejected obs.Op
	for _, op := range tel.Ops.Snapshot() {
		if strings.Contains(op.Err, "quota") {
			rejected = op
			break
		}
	}
	if rejected.Err == "" {
		t.Fatal("no op recorded for the quota-rejected batch")
	}
	if rejected.Trace == 0 {
		t.Fatal("quota-rejected op carries no trace ID")
	}
	if rejected.Tenant != DefaultTenant {
		t.Fatalf("rejected op attributed to tenant %q, want %q", rejected.Tenant, DefaultTenant)
	}
	tr := tel.Traces.Find(rejected.Trace)
	if tr == nil {
		t.Fatalf("quota-rejected trace %d not retained in the store", rejected.Trace)
	}
	snap := tr.Snapshot()
	if !strings.Contains(snap.Err, "quota") {
		t.Fatalf("retained trace error %q does not carry the quota rejection", snap.Err)
	}
	if snap.Duration <= 0 {
		t.Fatal("quota-rejected trace was never finished (duration 0)")
	}
}

// TestTracingRaceStress races submitters, queriers, and telemetry scrapers
// against a server whose every op is tail-sampled (SlowOp 1ns) and
// wide-event logged, with the WAL recording fsync spans — the configuration
// that exercises every cross-goroutine handoff the tracing plane has. Run
// with -race; correctness here is "no data race, no panic, traces retained".
func TestTracingRaceStress(t *testing.T) {
	tr := workload.RandomSparse(16, 3, 2000, 5)
	srv, tel := newTracedWALServer(t, tr.NumProcs, wal.SyncBatch)
	tel.SlowOp = time.Nanosecond // every op is "slow": tail capture + boost fire constantly
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Submitters: disjoint slices of the trace, racing batch sizes.
	const submitters = 3
	per := len(tr.Events) / submitters
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(events []model.Event, seed int64) {
			defer wg.Done()
			sess, err := DialV2(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			r := rand.New(rand.NewSource(seed))
			for lo := 0; lo < len(events); {
				hi := lo + 1 + r.Intn(97)
				if hi > len(events) {
					hi = len(events)
				}
				if err := sess.ReportBatch(events[lo:hi]); err != nil {
					t.Error(err)
					return
				}
				lo = hi
			}
		}(tr.Events[w*per:(w+1)*per], int64(w))
	}
	// Queriers race the submitters.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sess, err := DialV2(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := tr.Events[r.Intn(len(tr.Events))].ID
				b := tr.Events[r.Intn(len(tr.Events))].ID
				// Racing the submitters means querying events that may not
				// be delivered yet; rejections are expected — the test is
				// about races, not answers.
				_, _ = sess.Precedes(a, b)
			}
		}(100 + int64(w))
	}
	// Scrapers: /metrics exposition, status, and trace-store snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := tel.Registry.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			_ = srv.Status()
			for _, batch := range tel.Traces.Snapshot("", 20) {
				_ = batch.Snapshot()
			}
			_ = tel.Ops.Slowest(10)
		}
	}()

	// Let the race run until the submitters drain, then stop the rest.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			if tel.Traces.Total("") == 0 {
				t.Fatal("stress run retained no traces despite tail sampling")
			}
			return
		default:
		}
		if i == 0 {
			// Submitters finish on their own; queriers/scrapers need the stop.
			go func() {
				// Wait for submitters by polling ingestion progress.
				for srv.counters.EventsIngested.Value() < int64(submitters*per) {
					time.Sleep(time.Millisecond)
				}
				close(stop)
			}()
		}
		time.Sleep(time.Millisecond)
	}
}
