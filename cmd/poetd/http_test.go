package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// TestPoetdHTTPPlane drives the real daemon with -http and checks the whole
// admin surface: probes, Prometheus metrics with live paper gauges, the
// JSON status document, and the op-trace endpoint.
func TestPoetdHTTPPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon; skipped with -short")
	}
	bin := buildPoetd(t)

	tr := workload.RandomSparse(10, 3, 400, 7)
	p := startPoetd(t, bin,
		"-procs", fmt.Sprint(tr.NumProcs), "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0")
	defer func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}()
	addr := boundAddr(t, p.waitLine(t, "monitoring"))
	httpAddr := boundAddr(t, p.waitLine(t, "admin http listening"))
	base := "http://" + httpAddr

	// Drive some load so every instrument has observations.
	sess, err := monitor.DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Events); lo += 64 {
		hi := lo + 64
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatalf("ReportBatch[%d:%d]: %v", lo, hi, err)
		}
	}
	for k := 0; k < 50; k++ {
		a := tr.Events[(k*7919)%len(tr.Events)].ID
		b := tr.Events[(k*104729)%len(tr.Events)].ID
		if _, err := sess.Precedes(a, b); err != nil {
			t.Fatalf("Precedes(%v,%v): %v", a, b, err)
		}
	}
	sess.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 while serving", code)
	}

	_, metricsBody := get("/metrics")
	for _, series := range []string{
		"poetd_ingest_batch_seconds_bucket{le=",
		"poetd_ingest_batch_seconds_count",
		"poetd_query_batch_seconds_count",
		"poetd_decode_frame_seconds_count",
		"poetd_ts_size_ratio",
		"poetd_clusters_live",
		"poetd_cluster_size_count{size=",
		"poetd_events_ingested_total",
		"poetd_greatest_cluster_first_hit_rate",
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("/metrics is missing %q", series)
		}
	}
	// The load above must have landed in the ingest histogram.
	if strings.Contains(metricsBody, "poetd_ingest_batch_seconds_count 0\n") {
		t.Error("/metrics reports zero ingest batches after load")
	}

	code, statusBody := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var status struct {
		Events int `json:"events"`
		Paper  struct {
			TimestampSizeRatio float64 `json:"timestamp_size_ratio"`
			ClustersLive       int     `json:"clusters_live"`
		} `json:"paper"`
		Latency map[string]json.RawMessage `json:"latency"`
	}
	if err := json.Unmarshal([]byte(statusBody), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, statusBody)
	}
	if status.Events != len(tr.Events) {
		t.Errorf("/statusz events = %d, want %d", status.Events, len(tr.Events))
	}
	if status.Paper.TimestampSizeRatio <= 0 || status.Paper.TimestampSizeRatio > 1.5 {
		t.Errorf("/statusz timestamp_size_ratio = %v, want a sane positive ratio", status.Paper.TimestampSizeRatio)
	}
	if status.Paper.ClustersLive <= 0 {
		t.Errorf("/statusz clusters_live = %d, want > 0", status.Paper.ClustersLive)
	}
	if _, present := status.Latency["ingest_batch"]; !present {
		t.Error("/statusz latency block is missing ingest_batch")
	}

	code, traceBody := get("/tracez?n=10")
	if code != http.StatusOK {
		t.Fatalf("/tracez = %d", code)
	}
	var traces struct {
		Total   uint64            `json:"total"`
		Slowest []json.RawMessage `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(traceBody), &traces); err != nil {
		t.Fatalf("/tracez is not JSON: %v\n%s", err, traceBody)
	}
	if traces.Total == 0 || len(traces.Slowest) == 0 {
		t.Errorf("/tracez total=%d slowest=%d, want traced ops after load", traces.Total, len(traces.Slowest))
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("poetd exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("poetd did not shut down after SIGTERM")
	}
}

// flakyJournal is a RunJournal that fails its failAt-th AppendRun and accepts
// every other one.
type flakyJournal struct {
	mu            sync.Mutex
	calls, failAt int
}

var errDiskGone = errors.New("input/output error")

func (j *flakyJournal) AppendRun([]model.Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.calls++
	if j.calls == j.failAt {
		return errDiskGone
	}
	return nil
}

func (j *flakyJournal) Stats() string { return "" }

// TestReadinessFollowsTheJournal fails one journal append: the collector
// fail-stops, and from then on /readyz answers 503 and the tenant's /statusz
// block names the error, although the journal itself would accept the next
// run.
func TestReadinessFollowsTheJournal(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 200, 11)
	m, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tel := obs.NewTelemetry(obs.NewRegistry())
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{Obs: tel, Tenants: &monitor.TenantsConfig{
		New: func(name string) (monitor.TenantResources, error) {
			if name != monitor.DefaultTenant {
				return monitor.TenantResources{}, fmt.Errorf("this server serves only %q", monitor.DefaultTenant)
			}
			return monitor.TenantResources{Monitor: m, Journal: &flakyJournal{failAt: 3}}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := adminPlane(srv, tel, func() bool { return true }).Server()
	go admin.Serve(ln)
	defer admin.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before any failure, want 200", code)
	}

	sess, err := monitor.DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	failed := false
	for lo := 0; lo < len(tr.Events) && !failed; lo += 16 {
		failed = sess.ReportBatch(tr.Events[lo:min(lo+16, len(tr.Events))]) != nil
	}
	if !failed {
		t.Fatal("no batch met the journal failure")
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after the journal failed, want 503", code)
	}
	_, body := get("/statusz")
	var status struct {
		Tenants map[string]struct {
			JournalError string `json:"journal_error"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v", err)
	}
	if got := status.Tenants[monitor.DefaultTenant].JournalError; !strings.Contains(got, errDiskGone.Error()) {
		t.Fatalf("/statusz journal_error = %q, want it to name %q", got, errDiskGone)
	}
}
