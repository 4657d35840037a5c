package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// poetdProc wraps one running daemon: its process, and a line-scanner over
// its stdout so tests can watch for the startup and recovery banners.
type poetdProc struct {
	cmd   *exec.Cmd
	lines chan string
}

// buildPoetd builds the daemon into the test's temporary directory.
func buildPoetd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "poetd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building poetd: %v", err)
	}
	return bin
}

func startPoetd(t *testing.T, bin string, args ...string) *poetdProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return &poetdProc{cmd: cmd, lines: lines}
}

// waitLine waits for a stdout line containing substr and returns it.
func (p *poetdProc) waitLine(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("poetd exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timeout waiting for poetd to print %q", substr)
		}
	}
}

// boundAddr parses the listen address out of a slog startup line
// (`... msg=monitoring procs=N addr=HOST:PORT ...`).
func boundAddr(t *testing.T, banner string) string {
	t.Helper()
	return logAttr(t, banner, "addr")
}

// logAttr extracts one key=value attribute from a slog text line, stripping
// quotes if the handler added them.
func logAttr(t *testing.T, line, key string) string {
	t.Helper()
	for _, field := range strings.Fields(line) {
		if v, found := strings.CutPrefix(field, key+"="); found {
			return strings.Trim(v, `"`)
		}
	}
	t.Fatalf("no %s= attribute in log line %q", key, line)
	return ""
}

// TestPoetdKillRecovery is the end-to-end crash test: the real daemon is
// built, run with a WAL, killed with SIGKILL mid-stream, restarted on the
// same directory, fed the stream again (duplicates are rejected politely),
// and must then answer precedence queries exactly like an in-process
// reference monitor.
func TestPoetdKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real daemon; skipped with -short")
	}
	bin := buildPoetd(t)

	tr := workload.RandomSparse(10, 3, 400, 7)
	walDir := t.TempDir()
	args := []string{
		"-procs", fmt.Sprint(tr.NumProcs), "-addr", "127.0.0.1:0",
		"-wal", walDir, "-fsync", "always", "-snapshot-every", "300",
	}

	// Phase 1: stream most of the computation, then pull the plug.
	p1 := startPoetd(t, bin, args...)
	addr := boundAddr(t, p1.waitLine(t, "monitoring"))
	sess, err := monitor.DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(tr.Events) * 2 / 3
	for lo := 0; lo < cut; lo += 64 {
		hi := lo + 64
		if hi > cut {
			hi = cut
		}
		if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatalf("ReportBatch[%d:%d]: %v", lo, hi, err)
		}
	}
	sess.Close()
	if err := p1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	p1.cmd.Wait()

	// Phase 2: restart on the same WAL directory. The daemon must come back
	// announcing a recovery.
	p2 := startPoetd(t, bin, args...)
	defer func() {
		p2.cmd.Process.Kill()
		p2.cmd.Wait()
	}()
	// The default tenant's log lives in the root's "default" subdirectory
	// under the tenant-aware WAL layout.
	recLine := p2.waitLine(t, "wal recovered")
	if got, want := logAttr(t, recLine, "dir"), filepath.Join(walDir, "default"); got != want {
		t.Fatalf("recovery line %q names dir %q, want %q", recLine, got, want)
	}
	addr = boundAddr(t, p2.waitLine(t, "monitoring"))
	sess, err = monitor.DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Phase 3: the instrumentation re-sends the whole stream (it has no way
	// to know how much survived). Durable events are rejected politely as
	// already delivered; everything else is ingested.
	resent, rejected := 0, 0
	for _, e := range tr.Events {
		if err := sess.Report(e); err != nil {
			if !strings.Contains(err.Error(), "already delivered") {
				t.Fatalf("resubmitting %v: %v", e.ID, err)
			}
			rejected++
			continue
		}
		resent++
	}
	if rejected == 0 {
		t.Fatal("no event was rejected as already delivered: nothing was recovered")
	}
	t.Logf("recovery: %d events survived the kill, %d resent", rejected, resent)

	// Phase 4: the daemon's answers must match an uninterrupted reference.
	ref, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k++ {
		a := tr.Events[(k*7919)%len(tr.Events)].ID
		b := tr.Events[(k*104729)%len(tr.Events)].ID
		got, err := sess.Precedes(a, b)
		if err != nil {
			t.Fatalf("Precedes(%v,%v): %v", a, b, err)
		}
		want, err := ref.Precedes(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Precedes(%v,%v) = %v after kill+recovery, reference %v", a, b, got, want)
		}
	}

	// The STATS surface must expose the WAL counters.
	stats, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "wal_records=") {
		t.Fatalf("STATS %q does not include WAL counters", stats)
	}

	// Phase 5: graceful shutdown closes the log cleanly.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("poetd exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("poetd did not shut down after SIGTERM")
	}
}

// TestPoetdMultiTenantKillRecovery is the multi-tenant crash battery: one
// daemon serves three namespaces streaming colliding event IDs, is killed
// with SIGKILL mid-ingest, restarted on the same WAL root, and must then
// recover every namespace independently — each tenant's precedence answers
// matching its own uninterrupted reference monitor, with no cross-tenant
// bleed.
func TestPoetdMultiTenantKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real daemon; skipped with -short")
	}
	bin := buildPoetd(t)

	// Three different computations over the same process IDs: every event ID
	// exists in every namespace with a different causal past.
	tenants := []string{"alpha", "beta", "gamma"}
	traces := map[string]*model.Trace{
		"alpha": workload.RandomSparse(8, 3, 300, 11),
		"beta":  workload.RandomSparse(8, 3, 300, 22),
		"gamma": workload.RandomSparse(8, 3, 300, 33),
	}
	walDir := t.TempDir()
	args := []string{
		"-procs", "8", "-addr", "127.0.0.1:0",
		"-wal", walDir, "-fsync", "always", "-snapshot-every", "200",
	}

	// Phase 1: stream two thirds of each computation, then pull the plug.
	p1 := startPoetd(t, bin, args...)
	addr := boundAddr(t, p1.waitLine(t, "monitoring"))
	for _, name := range tenants {
		tr := traces[name]
		sess, err := monitor.DialV2(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SelectTenant(name); err != nil {
			t.Fatalf("SelectTenant(%s): %v", name, err)
		}
		cut := len(tr.Events) * 2 / 3
		for lo := 0; lo < cut; lo += 32 {
			hi := lo + 32
			if hi > cut {
				hi = cut
			}
			if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
				t.Fatalf("%s ReportBatch[%d:%d]: %v", name, lo, hi, err)
			}
		}
		sess.Close()
	}
	if err := p1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	p1.cmd.Wait()

	// Each namespace must have its own WAL directory on disk.
	for _, name := range tenants {
		if fi, err := os.Stat(filepath.Join(walDir, name)); err != nil || !fi.IsDir() {
			t.Fatalf("no WAL directory for tenant %s: %v", name, err)
		}
	}

	// Phase 2: restart on the same root. Startup discovery must recover all
	// three namespaces (plus default) before serving.
	p2 := startPoetd(t, bin, args...)
	defer func() {
		p2.cmd.Process.Kill()
		p2.cmd.Wait()
	}()
	banner := p2.waitLine(t, "monitoring")
	addr = boundAddr(t, banner)
	if got := logAttr(t, banner, "tenants"); got != "4" {
		t.Fatalf("startup banner reports tenants=%s, want 4 (default+3 recovered)", got)
	}

	// Phase 3: per tenant — resend the full stream (recovered events are
	// rejected politely), then check the sampled precedence matrix against
	// that tenant's uninterrupted reference.
	for _, name := range tenants {
		tr := traces[name]
		sess, err := monitor.DialV2(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SelectTenant(name); err != nil {
			t.Fatalf("SelectTenant(%s): %v", name, err)
		}
		rejected := 0
		for _, e := range tr.Events {
			if err := sess.Report(e); err != nil {
				if !strings.Contains(err.Error(), "already delivered") {
					t.Fatalf("%s: resubmitting %v: %v", name, e.ID, err)
				}
				rejected++
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: no event rejected as already delivered: nothing recovered", name)
		}

		ref, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.DeliverAll(tr); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 200; k++ {
			a := tr.Events[(k*7919)%len(tr.Events)].ID
			b := tr.Events[(k*104729)%len(tr.Events)].ID
			got, err := sess.Precedes(a, b)
			if err != nil {
				t.Fatalf("%s: Precedes(%v,%v): %v", name, a, b, err)
			}
			want, err := ref.Precedes(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: Precedes(%v,%v) = %v after kill+recovery, reference %v", name, a, b, got, want)
			}
		}

		// The tenant's STATS must account exactly its own computation.
		stats, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stats, fmt.Sprintf("tenant=%s", name)) {
			t.Fatalf("%s STATS %q lacks tenant attribution", name, stats)
		}
		if !strings.Contains(stats, fmt.Sprintf("events=%d ", len(tr.Events))) {
			t.Fatalf("%s STATS %q: want events=%d", name, stats, len(tr.Events))
		}
		sess.Close()
	}

	// Phase 4: graceful shutdown closes every namespace's log cleanly.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("poetd exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("poetd did not shut down after SIGTERM")
	}
}

// TestPoetdRecoveryNamesFailingRecord pins what recovery does with a log it
// cannot replay: it feeds the records through the batch entry without a
// barrier between them, the rejection is still synchronous, and the daemon
// refuses to start naming the event. (A wrong -procs is refused earlier, at
// wal.Open, so the log is built by hand: its second record repeats an event
// the first delivered.)
func TestPoetdRecoveryNamesFailingRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon; skipped with -short")
	}
	bin := buildPoetd(t)
	walDir := t.TempDir()
	wlog, err := wal.Open(filepath.Join(walDir, "default"), wal.Options{NumProcs: 4, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	unary := func(p, i int) model.Event {
		return model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: model.Unary}
	}
	for _, run := range [][]model.Event{{unary(0, 1), unary(1, 1)}, {unary(2, 1), unary(1, 1), unary(3, 1)}} {
		if err := wlog.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "2"} {
		p := startPoetd(t, bin, "-procs", "4", "-addr", "127.0.0.1:0", "-wal", walDir, "-ingest-shards", shards)
		line := p.waitLine(t, "wal replay")
		if !strings.Contains(line, "at p1:1") || !strings.Contains(line, "duplicate event") {
			t.Fatalf("-ingest-shards %s: recovery error %q does not name the repeated event p1:1", shards, line)
		}
		if err := p.cmd.Wait(); err == nil {
			t.Fatalf("-ingest-shards %s: poetd started on a log it could not replay", shards)
		}
	}
}

// TestPoetdFrozenSingleWriterSpelling starts the daemon the way the frozen
// spmd-stream-1lane workload does. -plan-queue is a depth and one lane reads
// none, so the spelling must keep starting, serve, and report one shard.
func TestPoetdFrozenSingleWriterSpelling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon; skipped with -short")
	}
	p := startPoetd(t, buildPoetd(t), "-procs", "4", "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-ingest-shards", "1", "-plan-queue", "-1")
	defer func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}()
	addr := boundAddr(t, p.waitLine(t, "monitoring"))
	httpAddr := boundAddr(t, p.waitLine(t, "admin http listening"))
	sess, err := monitor.DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	send := model.EventID{Process: 0, Index: 1}
	recv := model.EventID{Process: 1, Index: 1}
	if err := sess.ReportBatch([]model.Event{
		{ID: send, Kind: model.Send, Partner: recv},
		{ID: recv, Kind: model.Receive, Partner: send},
	}); err != nil {
		t.Fatal(err)
	}
	if ok, err := sess.Precedes(send, recv); err != nil || !ok {
		t.Fatalf("Precedes(send, receive) = %v, %v", ok, err)
	}
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\npoetd_ingest_shards 1\n") {
		t.Fatal("/metrics does not report poetd_ingest_shards 1")
	}
}
