package monitor

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
)

func adversarialMonitor(t *testing.T, procs int) *Monitor {
	t.Helper()
	m, err := New(procs, hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func id(p, i int) model.EventID {
	return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
}

func ev(kind model.Kind, e, partner model.EventID) model.Event {
	return model.Event{ID: e, Kind: kind, Partner: partner}
}

// TestCollectorRejectsBadPartners covers the structural validation a corrupt
// instrumentation stream must not get past: missing, out-of-range,
// same-process and self partner references.
func TestCollectorRejectsBadPartners(t *testing.T) {
	cases := []struct {
		name string
		e    model.Event
		want error
	}{
		{"send/no-partner", ev(model.Send, id(0, 1), model.EventID{}), ErrBadPartner},
		{"receive/no-partner", ev(model.Receive, id(0, 1), model.EventID{}), ErrBadPartner},
		{"sync/no-partner", ev(model.Sync, id(0, 1), model.EventID{}), ErrBadPartner},
		{"send/partner-out-of-range", ev(model.Send, id(0, 1), id(7, 1)), ErrBadPartner},
		{"send/partner-same-process", ev(model.Send, id(0, 1), id(0, 2)), ErrBadPartner},
		{"receive/partner-self", ev(model.Receive, id(0, 1), id(0, 1)), ErrBadPartner},
		{"sync/partner-self", ev(model.Sync, id(0, 1), id(0, 1)), ErrSelfSync},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(adversarialMonitor(t, 3))
			n, err := c.SubmitBatch([]model.Event{tc.e})
			if !errors.Is(err, tc.want) {
				t.Fatalf("SubmitBatch(%v) = %v, want %v", tc.e, err, tc.want)
			}
			if n != 0 {
				t.Fatalf("accepted %d records from a bad submission", n)
			}
			if held := c.Held(); held != 0 {
				t.Fatalf("rejected event left held=%d", held)
			}
			// The rejection must leave the stream usable: the same slot can
			// still be filled by a valid event.
			if err := c.Submit(ev(model.Unary, tc.e.ID, model.EventID{})); err != nil {
				t.Fatalf("valid event after rejection: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollectorSelfSyncDoesNotCorruptFrontier is the regression test for the
// double-delivery bug: a sync event partnered with itself used to be
// delivered twice (once as itself, once as its own "partner half"), driving
// held negative and advancing the process frontier by two.
func TestCollectorSelfSyncDoesNotCorruptFrontier(t *testing.T) {
	c := NewCollector(adversarialMonitor(t, 2))
	if _, err := c.SubmitBatch([]model.Event{ev(model.Sync, id(0, 1), id(0, 1))}); !errors.Is(err, ErrSelfSync) {
		t.Fatalf("self-sync: %v, want ErrSelfSync", err)
	}
	if held := c.Held(); held != 0 {
		t.Fatalf("held=%d after rejected self-sync, want 0", held)
	}
	// The frontier must still be at index 1: were it advanced by two, this
	// delivery would be rejected as already delivered.
	if err := c.Submit(ev(model.Unary, id(0, 1), model.EventID{})); err != nil {
		t.Fatalf("frontier corrupted by rejected self-sync: %v", err)
	}
	if err := c.Submit(ev(model.Unary, id(0, 2), model.EventID{})); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorSyncMismatch delivers two sync halves that name different
// partners: both reach their process fronts, and the pairing check must
// reject them instead of delivering a half-synchronized pair.
func TestCollectorSyncMismatch(t *testing.T) {
	c := NewCollector(adversarialMonitor(t, 3))
	// p0:1 claims to sync with p1:1; p1:1 claims to sync with p2:1.
	if _, err := c.SubmitBatch([]model.Event{ev(model.Sync, id(0, 1), id(1, 1))}); err != nil {
		t.Fatalf("first half alone must buffer, got %v", err)
	}
	_, err := c.SubmitBatch([]model.Event{ev(model.Sync, id(1, 1), id(2, 1))})
	if !errors.Is(err, ErrSyncMismatch) {
		t.Fatalf("mismatched halves: %v, want ErrSyncMismatch", err)
	}
	if held := c.Held(); held != 2 {
		t.Fatalf("held=%d, want both mismatched halves still pending", held)
	}
	// A sync half whose partner is not a sync at all is the same corruption.
	c2 := NewCollector(adversarialMonitor(t, 3))
	if _, err := c2.SubmitBatch([]model.Event{ev(model.Sync, id(0, 1), id(1, 1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SubmitBatch([]model.Event{ev(model.Unary, id(1, 1), model.EventID{})}); !errors.Is(err, ErrSyncMismatch) {
		t.Fatalf("sync half against unary partner: %v, want ErrSyncMismatch", err)
	}
}

// TestCollectorReceiveMismatch covers receives that name a delivered send
// which targets some other event, and double-claims of one send.
func TestCollectorReceiveMismatch(t *testing.T) {
	c := NewCollector(adversarialMonitor(t, 3))
	// Send p0:1 targets p1:2, but receive p1:1 claims it.
	if _, err := c.SubmitBatch([]model.Event{ev(model.Send, id(0, 1), id(1, 2))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch([]model.Event{ev(model.Receive, id(1, 1), id(0, 1))}); !errors.Is(err, ErrReceiveMismatch) {
		t.Fatalf("receive claiming a send with a different target: %v, want ErrReceiveMismatch", err)
	}

	// Double claim: p1:1 legitimately receives p0:1; p2:1 then claims the
	// same send.
	c2 := NewCollector(adversarialMonitor(t, 3))
	if _, err := c2.SubmitBatch([]model.Event{
		ev(model.Send, id(0, 1), id(1, 1)),
		ev(model.Receive, id(1, 1), id(0, 1)),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SubmitBatch([]model.Event{ev(model.Receive, id(2, 1), id(0, 1))}); !errors.Is(err, ErrReceiveMismatch) {
		t.Fatalf("second claim on one send: %v, want ErrReceiveMismatch", err)
	}
}

// TestSubmitBatchPartialAccept checks the applied-prefix contract: on a bad
// record mid-batch the prefix stays applied, the count says how much, and
// the error names the offending record.
func TestSubmitBatchPartialAccept(t *testing.T) {
	m := adversarialMonitor(t, 3)
	c := NewCollector(m)
	batch := []model.Event{
		ev(model.Unary, id(0, 1), model.EventID{}),
		ev(model.Send, id(0, 2), id(1, 1)),
		ev(model.Receive, id(1, 1), id(0, 2)),
		ev(model.Sync, id(2, 1), id(2, 1)), // bad: self-sync
		ev(model.Unary, id(1, 2), model.EventID{}),
	}
	n, err := c.SubmitBatch(batch)
	if !errors.Is(err, ErrSelfSync) {
		t.Fatalf("SubmitBatch: %v, want ErrSelfSync", err)
	}
	if n != 3 {
		t.Fatalf("accepted %d records, want the 3-record prefix", n)
	}
	// The prefix really was delivered: the frontier moved past it.
	if ok, err := m.Precedes(id(0, 2), id(1, 1)); err != nil || !ok {
		t.Fatalf("prefix not delivered: Precedes=%v err=%v", ok, err)
	}
	// Ingestion continues after the rejection.
	if n, err := c.SubmitBatch(batch[4:]); err != nil || n != 1 {
		t.Fatalf("tail resubmission: n=%d err=%v", n, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchPartialAcceptAsyncPlanner re-runs the applied-prefix
// contract above one lane, behind the planner goroutine: the collector admits,
// and counts, the prefix before anything reaches the plan queue, so the
// rejection comes back from the same SubmitBatch call with the same count as
// at one lane — only stamping is asynchronous, and the prefix is queryable
// once the ingest barrier closes that window. (Tenant event quotas are checked
// before submission and stay batch-atomic at every lane count; see
// TestTenantQuotaLimits.)
func TestSubmitBatchPartialAcceptAsyncPlanner(t *testing.T) {
	m, err := NewWithOptions(3, hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()},
		hct.PipelineOptions{Shards: 2, PlanQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := NewCollector(m)
	c.pipelined = true
	batch := []model.Event{
		ev(model.Unary, id(0, 1), model.EventID{}),
		ev(model.Send, id(0, 2), id(1, 1)),
		ev(model.Receive, id(1, 1), id(0, 2)),
		ev(model.Sync, id(2, 1), id(2, 1)), // bad: self-sync
		ev(model.Unary, id(1, 2), model.EventID{}),
	}
	n, err := c.SubmitBatch(batch)
	if !errors.Is(err, ErrSelfSync) {
		t.Fatalf("SubmitBatch: %v, want ErrSelfSync", err)
	}
	if n != 3 {
		t.Fatalf("accepted %d records, want the 3-record prefix", n)
	}
	m.IngestBarrier()
	if ok, err := m.Precedes(id(0, 2), id(1, 1)); err != nil || !ok {
		t.Fatalf("prefix not delivered: Precedes=%v err=%v", ok, err)
	}
	if _, ok := m.Queries.Timestamp(id(2, 1)); ok {
		t.Fatal("rejected record reached the pipeline")
	}
	if n, err := c.SubmitBatch(batch[4:]); err != nil || n != 1 {
		t.Fatalf("tail resubmission: n=%d err=%v", n, err)
	}
	m.IngestBarrier()
	if _, ok := m.Queries.Timestamp(id(1, 2)); !ok {
		t.Fatal("tail not delivered after barrier")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchScratchReuse pushes many batches through one collector and
// checks the per-call bookkeeping ends clean each time — the scratch-buffer
// path must behave identically to fresh allocations.
func TestSubmitBatchScratchReuse(t *testing.T) {
	m := adversarialMonitor(t, 4)
	c := NewCollector(m)
	var batch []model.Event
	for i := 1; i <= 50; i++ {
		batch = batch[:0]
		for p := 0; p < 4; p++ {
			batch = append(batch, ev(model.Unary, id(p, i), model.EventID{}))
		}
		if n, err := c.SubmitBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("round %d: n=%d err=%v", i, n, err)
		}
		if held := c.Held(); held != 0 {
			t.Fatalf("round %d: held=%d", i, held)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchDoesNotRetainEvents pins the invariant the server's pooled
// event batches rely on: SubmitBatch is done with the caller's slice when it
// returns, records it holds included. A lagged batch — every receive and sync
// of a mixed trace, all of them held — is submitted, then its slice is
// overwritten; the rest of the trace follows in 32-record batches through the
// same slice, overwritten after each call. At one lane and at four behind the
// planner (pipelined, as the server runs it) the timestamps must equal those of
// a one-lane collector fed the same batches in slices of their own.
func TestSubmitBatchDoesNotRetainEvents(t *testing.T) {
	tr := randomQueryTrace(rand.New(rand.NewSource(31)), 6, 600)
	var lagged, rest []model.Event
	for _, e := range tr.Events {
		if e.Kind == model.Receive || e.Kind == model.Sync {
			lagged = append(lagged, e)
		} else {
			rest = append(rest, e)
		}
	}
	batches := [][]model.Event{lagged}
	for lo := 0; lo < len(rest); lo += 32 {
		batches = append(batches, rest[lo:min(lo+32, len(rest))])
	}
	cfg := hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}
	feed := func(shards int, reuse bool) *Monitor {
		m, err := NewWithOptions(tr.NumProcs, cfg, hct.PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(m)
		c.pipelined = shards > 1
		var buf []model.Event
		for i, b := range batches {
			if !reuse {
				buf = nil
			}
			buf = append(buf[:0], b...)
			if _, err := c.SubmitBatch(buf); err != nil {
				t.Fatalf("%d lanes, batch %d: %v", shards, i, err)
			}
			if i == 0 && c.Held() == 0 {
				t.Fatal("the lagged batch was delivered whole: nothing was held")
			}
			for k := range buf {
				buf[k] = ev(model.Sync, id(0, 1), id(1, 1))
			}
		}
		m.IngestBarrier()
		if err := c.Close(); err != nil {
			t.Fatalf("%d lanes: %v", shards, err)
		}
		return m
	}
	ref := feed(1, false)
	defer ref.Close()
	for _, shards := range []int{1, 4} {
		m := feed(shards, true)
		for _, e := range tr.Events {
			got, ok := m.Timestamp(e.ID)
			want, _ := ref.Timestamp(e.ID)
			if !ok || !sameTimestamp(got, want) {
				t.Fatalf("%d lanes, event %v: %v (%v), reference %v", shards, e.ID, got, ok, want)
			}
		}
		m.Close()
	}
}
