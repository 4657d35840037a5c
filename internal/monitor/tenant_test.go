package monitor

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// testTenantFactory builds one in-memory serving stack per namespace, the
// way poetd's factory does minus durability.
func testTenantFactory(numProcs int) func(string) (TenantResources, error) {
	return func(name string) (TenantResources, error) {
		m, err := New(numProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			return TenantResources{}, err
		}
		return TenantResources{Monitor: m, Close: func() error { m.Close(); return nil }}, nil
	}
}

func startTenantServer(t *testing.T, numProcs int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = &TenantsConfig{}
	}
	if cfg.Tenants.New == nil {
		cfg.Tenants.New = testTenantFactory(numProcs)
	}
	srv, err := NewTenantServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr.String()
}

// statsField extracts one k=v field from a STATS body.
func statsField(t *testing.T, stats, key string) string {
	t.Helper()
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	t.Fatalf("STATS %q has no %s field", stats, key)
	return ""
}

func statsInt(t *testing.T, stats, key string) int {
	t.Helper()
	n, err := strconv.Atoi(statsField(t, stats, key))
	if err != nil {
		t.Fatalf("STATS %s=%q is not a number", key, statsField(t, stats, key))
	}
	return n
}

// TestTenantIsolationColliding is the heart of the namespace model: two
// tenants stream colliding event IDs — the same processes, the same
// indexes — with opposite communication directions, and each namespace must
// answer its own truth. Tenant "blue" additionally carries a full corpus
// computation, cross-checked against an uninterrupted local monitor as
// reference, while "green" and the default tenant prove the collisions
// never leak. Blue and green stream over connections of their own.
func TestTenantIsolationColliding(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-36")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	srv, addr := startTenantServer(t, tr.NumProcs, ServerConfig{})
	defer srv.Close()

	// blue: the full corpus computation.
	blue, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer blue.Close()
	if err := blue.SelectTenant("blue"); err != nil {
		t.Fatal(err)
	}
	const chunk = 512
	for lo := 0; lo < len(tr.Events); lo += chunk {
		hi := min(lo+chunk, len(tr.Events))
		if err := blue.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatalf("blue ReportBatch[%d:%d]: %v", lo, hi, err)
		}
	}

	// green (a second connection): two events whose IDs collide with blue's
	// but whose message flows the other way: p1 sends to p0.
	green, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer green.Close()
	if err := green.SelectTenant("green"); err != nil {
		t.Fatal(err)
	}
	greenEvents := []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 0, Index: 1}},
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 1, Index: 1}},
	}
	for _, e := range greenEvents {
		if err := green.Report(e); err != nil {
			t.Fatalf("green Report(%v): %v", e.ID, err)
		}
	}

	// Green's truth: 1:1 happened before 0:1, never the reverse.
	a := model.EventID{Process: 0, Index: 1}
	b := model.EventID{Process: 1, Index: 1}
	if got, err := green.Precedes(b, a); err != nil || !got {
		t.Fatalf("green Precedes(1:1,0:1) = %v, %v; want true", got, err)
	}
	if got, err := green.Precedes(a, b); err != nil || got {
		t.Fatalf("green Precedes(0:1,1:1) = %v, %v; want false", got, err)
	}

	// Blue's truth is its own reference computation, indifferent to green.
	ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		e := tr.Events[(k*7919)%len(tr.Events)].ID
		f := tr.Events[(k*104729)%len(tr.Events)].ID
		got, err := blue.Precedes(e, f)
		if err != nil {
			t.Fatalf("blue Precedes(%v,%v): %v", e, f, err)
		}
		want, err := ref.Precedes(e, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("blue Precedes(%v,%v) = %v with green loaded, reference %v", e, f, got, want)
		}
	}

	// Per-tenant STATS: each namespace reports its own accounting.
	blueStats, err := blue.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statsInt(t, blueStats, "events"); got != len(tr.Events) {
		t.Fatalf("blue STATS events=%d, want %d", got, len(tr.Events))
	}
	if got := statsField(t, blueStats, "tenant"); got != "blue" {
		t.Fatalf("blue STATS tenant=%q, want blue", got)
	}
	greenStats, err := green.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statsInt(t, greenStats, "events"); got != len(greenEvents) {
		t.Fatalf("green STATS events=%d, want %d", got, len(greenEvents))
	}

	// A scope-less connection speaks to the default tenant, which saw none
	// of this traffic.
	def, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	defStats, err := def.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statsInt(t, defStats, "events"); got != 0 {
		t.Fatalf("default STATS events=%d after tenant traffic, want 0", got)
	}
	if got := statsField(t, defStats, "tenant"); got != DefaultTenant {
		t.Fatalf("default STATS tenant=%q, want %q", got, DefaultTenant)
	}

	// /statusz's view agrees.
	st := srv.Status()
	if len(st.Tenants) != 3 {
		t.Fatalf("Status reports %d tenants, want 3", len(st.Tenants))
	}
	if got := st.Tenants["blue"].Events; got != int64(len(tr.Events)) {
		t.Fatalf("Status blue events=%d, want %d", got, len(tr.Events))
	}
	if got := st.Tenants["green"].Events; got != int64(len(greenEvents)) {
		t.Fatalf("Status green events=%d, want %d", got, len(greenEvents))
	}
}

// TestTenantQuotaLimits exercises both ErrTenantQuota paths: the namespace
// count bound and the per-tenant event quota, over the wire.
func TestTenantQuotaLimits(t *testing.T) {
	srv, addr := startTenantServer(t, 4, ServerConfig{
		Tenants: &TenantsConfig{
			New:                testTenantFactory(4),
			MaxTenants:         2, // default + one more
			MaxEventsPerTenant: 3,
		},
	})
	defer srv.Close()

	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SelectTenant("one"); err != nil {
		t.Fatal(err)
	}
	// A second namespace would be the third live tenant: over MaxTenants.
	if err := c.SelectTenant("two"); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("SelectTenant beyond MaxTenants = %v, want quota error", err)
	}
	// The registry agrees and types the error.
	if _, err := srv.Tenant("two"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("srv.Tenant beyond MaxTenants = %v, want ErrTenantQuota", err)
	}
	// The failed selection must not have rescoped the connection: traffic
	// still lands on "one".
	events := []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
		{ID: model.EventID{Process: 0, Index: 2}, Kind: model.Unary},
		{ID: model.EventID{Process: 0, Index: 3}, Kind: model.Unary},
	}
	if err := c.ReportBatch(events); err != nil {
		t.Fatalf("ReportBatch within quota: %v", err)
	}
	// The quota (3 events) is now exhausted; the next batch is rejected
	// whole and nothing is partially applied.
	over := []model.Event{{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Unary}}
	if err := c.ReportBatch(over); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("ReportBatch over quota = %v, want quota error", err)
	}
	one, _ := srv.Lookup("one")
	if got := one.accepted.Load(); got != 3 {
		t.Fatalf("tenant one accepted %d events, want 3", got)
	}
	// The already-acknowledged events stay queryable.
	if got, err := c.Precedes(events[0].ID, events[1].ID); err != nil || !got {
		t.Fatalf("Precedes within quota'd tenant = %v, %v; want true", got, err)
	}
	// Invalid names are rejected before touching the registry.
	if err := c.SelectTenant("no/slashes"); err == nil {
		t.Fatal("SelectTenant accepted an invalid name")
	}
	if srv.NumTenants() != 2 {
		t.Fatalf("NumTenants = %d, want 2", srv.NumTenants())
	}
}

// TestTenantFactoryRefusal: TENANT default is a no-op reselection, a name the
// factory refuses is refused over the wire, and the refusal leaves the
// connection usable on its old scope.
func TestTenantFactoryRefusal(t *testing.T) {
	srv, addr := startServer(t, 4, ServerConfig{})
	defer srv.Close()
	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SelectTenant(DefaultTenant); err != nil {
		t.Fatalf("reselecting the default tenant: %v", err)
	}
	if err := c.SelectTenant("other"); err == nil {
		t.Fatal("a name the factory refuses was selected")
	}
	// The refusal leaves the session usable.
	if err := c.Report(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}); err != nil {
		t.Fatalf("Report after refused TENANT: %v", err)
	}
}

// TestTenantResourcesCloseOwnership: the server releases a tenant's
// resources exactly when TenantResources.Close is set. A tenant without
// Close keeps a working monitor after Server.Close, one with Close is closed
// once, and a factory result without a monitor is closed and refused.
func TestTenantResourcesCloseOwnership(t *testing.T) {
	cfg := hct.Config{MaxClusterSize: 2}
	kept, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	var mu sync.Mutex
	closes := map[string]int{}
	count := func(name string) error {
		mu.Lock()
		defer mu.Unlock()
		closes[name]++
		return nil
	}
	srv, err := NewTenantServer(ServerConfig{Tenants: &TenantsConfig{New: func(name string) (TenantResources, error) {
		switch name {
		case DefaultTenant:
			return TenantResources{Monitor: kept}, nil
		case "owned":
			m, err := New(2, cfg)
			if err != nil {
				return TenantResources{}, err
			}
			return TenantResources{Monitor: m, Close: func() error { m.Close(); return count(name) }}, nil
		}
		return TenantResources{Close: func() error { return count(name) }}, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant("owned"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant("empty"); err == nil {
		t.Fatal("a factory result without a monitor was served")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if closes["owned"] != 1 || closes["empty"] != 1 || len(closes) != 2 {
		t.Fatalf("closes = %v, want owned and empty once each", closes)
	}
	send := model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}}
	recv := model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: send.ID}
	if err := kept.DeliverBatch([]model.Event{send, recv}); err != nil {
		t.Fatalf("the caller's monitor after Server.Close: %v", err)
	}
	if ok, err := kept.Precedes(send.ID, recv.ID); err != nil || !ok {
		t.Fatalf("Precedes(send, receive) after Server.Close = %v, %v; want true", ok, err)
	}
}

// TestServerShutdownUnderLoad is the regression test for the Shutdown drain
// rework: with clients still streaming when Shutdown begins, the server
// must (a) lose no acknowledged batch and (b) return as soon as the last
// connection closes — not wait out the grace window.
func TestServerShutdownUnderLoad(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-36")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveDefault(t, TenantResources{Monitor: m}, ServerConfig{FixedVector: 300})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One connection per process, streaming that process's events in small
	// batches, closing when done. Events a client fails to submit after the
	// forced close are fine; events the server ACKED must survive.
	streams := perProcessStreams(tr)
	var acked sync.Map // process -> events acknowledged
	var connected, finished sync.WaitGroup
	start := make(chan struct{})
	for p, stream := range streams {
		p, stream := p, stream
		connected.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			c, err := DialV2(addr.String())
			connected.Done()
			if err != nil {
				return
			}
			defer c.Close()
			<-start
			count := 0
			for lo := 0; lo < len(stream); lo += 8 {
				hi := min(lo+8, len(stream))
				if err := c.ReportBatch(stream[lo:hi]); err != nil {
					break // forced close mid-stream: acked prefix still counts
				}
				count += hi - lo
				acked.Store(p, count)
			}
		}()
	}
	connected.Wait()
	close(start)

	// Shutdown with a grace window far longer than the workload: if the
	// drain still polled or waited out the grace, this test would time out
	// the assertion below.
	const graceWindow = 30 * time.Second
	begin := time.Now()
	err = srv.Shutdown(graceWindow)
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	finished.Wait()
	if elapsed >= graceWindow {
		t.Fatalf("Shutdown took %v, did not return when the last conn exited", elapsed)
	}

	totalAcked := 0
	acked.Range(func(_, v any) bool {
		totalAcked += v.(int)
		return true
	})
	if totalAcked == 0 {
		t.Fatal("no batch was acknowledged before shutdown; the test exercised nothing")
	}
	// Every acknowledged event must be in the store. (The monitor may hold
	// more: batches in flight at the cut that were accepted but whose ACK
	// the client never read.)
	if got := m.pipe.Result().Events; got < totalAcked {
		t.Fatalf("monitor holds %d events after shutdown, %d were acknowledged: acknowledged work lost", got, totalAcked)
	}
	t.Logf("shutdown in %v with %d/%d events acknowledged", elapsed, totalAcked, len(tr.Events))
}

// TestServerShutdownSignalsIdle asserts the drain returns promptly once the
// last connection closes, with time to spare against the grace window.
func TestServerShutdownSignalsIdle(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{})
	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		c.Close() // polite QUIT; the conn leaves the server's table
	}()
	begin := time.Now()
	if err := srv.Shutdown(20 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	elapsed := time.Since(begin)
	if elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v after the conn closed at 150ms; drain is not event-driven", elapsed)
	}
}

// TestTenantStatsRoundTrip pins the STATS dialect: the tenant field parses
// out of a scoped session's STATS and the ingest counters survive the round
// trip.
func TestTenantStatsRoundTrip(t *testing.T) {
	srv, addr := startTenantServer(t, 2, ServerConfig{})
	defer srv.Close()
	sess, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.SelectTenant("scoped"); err != nil {
		t.Fatalf("SelectTenant: %v", err)
	}
	stats, err := sess.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := statsField(t, stats, "tenant"); got != "scoped" {
		t.Fatalf("STATS tenant=%q, want scoped", got)
	}
	if got := statsInt(t, stats, "tenants"); got != 2 {
		t.Fatalf("STATS tenants=%d, want 2", got)
	}
}
