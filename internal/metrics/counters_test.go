package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServerCountersConcurrentAndSnapshot(t *testing.T) {
	var c ServerCounters
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.EventsIngested.Add(3)
				c.BatchesIngested.Add(1)
				c.QueriesAnswered.Add(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.EventsIngested != 3*workers*per || s.BatchesIngested != workers*per || s.QueriesAnswered != 2*workers*per {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCounterSnapshotSubAndRates(t *testing.T) {
	a := CounterSnapshot{EventsIngested: 100, BatchesIngested: 10, QueriesAnswered: 50}
	b := CounterSnapshot{EventsIngested: 700, BatchesIngested: 40, QueriesAnswered: 250}
	d := b.Sub(a)
	if d.EventsIngested != 600 || d.BatchesIngested != 30 || d.QueriesAnswered != 200 {
		t.Fatalf("delta = %+v", d)
	}
	r := d.Rates(2 * time.Second)
	if r.EventsPerSec != 300 || r.BatchesPerSec != 15 || r.QueriesPerSec != 100 {
		t.Fatalf("rates = %+v", r)
	}
	if z := d.Rates(0); z != (ThroughputRates{}) {
		t.Fatalf("zero-elapsed rates = %+v", z)
	}
}

func TestCounterSnapshotString(t *testing.T) {
	s := CounterSnapshot{EventsIngested: 5, ProtocolErrors: 2}.String()
	for _, want := range []string{"ingested=5", "proto_errors=2", "batches=0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestParseSnapshotRoundTrip(t *testing.T) {
	want := CounterSnapshot{
		EventsIngested: 1200, BatchesIngested: 40, QueriesAnswered: 300,
		QueryFrames: 12, FramesRead: 52, LinesRead: 7,
		ProtocolErrors: 1, ConnsAccepted: 3, ConnsRejected: 2,
	}
	got, ok := ParseSnapshot(want.String())
	if !ok || got != want {
		t.Fatalf("ParseSnapshot(String()) = %+v ok=%v, want %+v", got, ok, want)
	}
}

func TestParseSnapshotStatsBody(t *testing.T) {
	// A realistic STATS body: monitor accounting up front, rates and WAL
	// counters after — all of which must be skipped without confusion.
	body := "events=900 crs=40 clusters=12 held=0 storage=12345 " +
		"ingested=900 batches=30 queries=10 qframes=5 frames=36 lines=0 " +
		"proto_errors=0 conns=2 rejected=0 " +
		"events_per_sec=4500.2 queries_per_sec=50.1 wal_records=30 wal_bytes=99999"
	got, ok := ParseSnapshot(body)
	if !ok {
		t.Fatal("ParseSnapshot found no counters in a STATS body")
	}
	if got.EventsIngested != 900 || got.BatchesIngested != 30 || got.ConnsAccepted != 2 {
		t.Fatalf("ParseSnapshot = %+v", got)
	}
}

func TestParseSnapshotRejectsForeign(t *testing.T) {
	for _, body := range []string{"", "hello world", "wal_records=5 storage=9"} {
		if _, ok := ParseSnapshot(body); ok {
			t.Fatalf("ParseSnapshot(%q) claimed ok", body)
		}
	}
}

func TestParseTenantCounters(t *testing.T) {
	body := `ingested=900 tenant_events{tenant="blue"}=500 tenant_queries{tenant="blue"}=12 ` +
		`tenant_events{tenant="green"}=400 other{tenant="blue"}=9 unlabeled{shard="0"}=1`
	got := ParseTenantCounters(body)
	want := map[string]TenantCounters{
		"blue":  {Events: 500, Queries: 12},
		"green": {Events: 400},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTenantCounters = %+v, want %+v", got, want)
	}
	if m := ParseTenantCounters("ingested=900 batches=30"); m == nil || len(m) != 0 {
		t.Fatalf("pre-tenant body = %v, want empty non-nil map", m)
	}
}

func TestParseSnapshotIgnoresLabeledFields(t *testing.T) {
	// The plain-counter parser must pass over labeled fields without
	// misreading them as counters.
	body := `ingested=900 tenant_events{tenant="blue"}=500 batches=30`
	got, ok := ParseSnapshot(body)
	if !ok || got.EventsIngested != 900 || got.BatchesIngested != 30 {
		t.Fatalf("ParseSnapshot = %+v ok=%v", got, ok)
	}
}
