package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestModesAgree drives the three answering modes in-process over one small
// ring: a local monitor, a WAL directory holding the trace, and a server the
// trace is -load'ed into. They share one driver, so they must print the same
// relation for the same pair, survive the same Fidge/Mattern and
// reachability cross-check under -sample, and refuse the same malformed -e.
func TestModesAgree(t *testing.T) {
	tr := workload.Ring(8, 12, false)
	dir := t.TempDir()

	traceFile := filepath.Join(dir, "ring.hctr")
	f, err := os.Create(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	walDir := filepath.Join(dir, "wal")
	l, err := wal.Open(walDir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRun(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{Tenants: &monitor.TenantsConfig{
		New: func(name string) (monitor.TenantResources, error) {
			if name != monitor.DefaultTenant {
				return monitor.TenantResources{}, fmt.Errorf("this server serves only %q", monitor.DefaultTenant)
			}
			return monitor.TenantResources{Monitor: m}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	poquery := func(args ...string) (string, error) {
		var out bytes.Buffer
		err := run(append(args, "-in", traceFile), &out)
		return out.String(), err
	}
	if out, err := poquery("-addr", addr.String(), "-load", "-sample", "1"); err != nil {
		t.Fatalf("-load: %v\n%s", err, out)
	}
	modes := map[string][]string{
		"local":  nil,
		"replay": {"-wal", walDir},
		"remote": {"-addr", addr.String()},
	}

	// relation extracts "p0:1 happened before p1:5" from the answer line.
	relation := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if rel, _, ok := strings.Cut(line, "   ["); ok {
				return rel
			}
		}
		return ""
	}
	for _, pair := range [][2]string{{"0:1", "1:5"}, {"1:5", "0:1"}, {"0:1", "7:1"}, {"3:4", "3:4"}} {
		want := ""
		for name, args := range modes {
			out, err := poquery(append(args, "-e", pair[0], "-f", pair[1])...)
			if err != nil {
				t.Fatalf("%s -e %s -f %s: %v\n%s", name, pair[0], pair[1], err, out)
			}
			got := relation(out)
			if got == "" || !strings.Contains(out, "fidge-mattern=") || !strings.Contains(out, "reachability=") {
				t.Fatalf("%s -e %s -f %s printed no cross-checked relation:\n%s", name, pair[0], pair[1], out)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s prints %q for the pair another mode prints as %q", name, got, want)
			}
		}
	}

	for name, args := range modes {
		out, err := poquery(append(args, "-sample", "50")...)
		if err != nil {
			t.Errorf("%s -sample 50: %v\n%s", name, err, out)
		}
		if !strings.Contains(out, "50 sampled queries answered ") || !strings.Contains(out, "in agreement with 2 reference implementations") {
			t.Errorf("%s -sample 50 ends with:\n%s", name, out[max(0, len(out)-200):])
		}

		// The shared parser's verdict, not a query about p0:1.
		out, err = poquery(append(args, "-e", "4294967296:1", "-f", "0:1")...)
		if err == nil || !strings.Contains(err.Error(), `bad event id "4294967296:1"`) {
			t.Errorf("%s -e 4294967296:1: err %v, output:\n%s", name, err, out)
		}
		if relation(out) != "" {
			t.Errorf("%s -e 4294967296:1 answered a query:\n%s", name, out)
		}
	}

	// -cut is shared by the two modes that hold a store.
	var cuts []string
	for _, name := range []string{"local", "replay"} {
		out, err := poquery(append(modes[name], "-e", "3:4", "-cut")...)
		if err != nil {
			t.Fatalf("%s -cut: %v\n%s", name, err, out)
		}
		_, table, _ := strings.Cut(out, "causal cuts around p3:4")
		_, table, _ = strings.Cut(table, "\n")
		cuts = append(cuts, table)
	}
	if cuts[0] == "" || cuts[0] != cuts[1] {
		t.Errorf("-cut tables differ:\nlocal:\n%s\nreplay:\n%s", cuts[0], cuts[1])
	}
	if _, err := poquery("-addr", addr.String(), "-e", "3:4", "-cut"); err == nil {
		t.Error("-addr -cut was accepted")
	}
}

// TestSampleAtCutoff asks a daemon holding pvm/ring-300 for -sample queries
// at a cutoff short of the trace's end: every drawn event must be one the
// cutoff holds, so each query is answered, none refused as unknown.
func TestSampleAtCutoff(t *testing.T) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		t.Fatal("no corpus computation pvm/ring-300")
	}
	tr := spec.Generate()
	const cutoff = 20000
	if len(tr.Events) <= cutoff {
		t.Fatalf("pvm/ring-300 has %d events: the cutoff %d no longer falls inside it", len(tr.Events), cutoff)
	}
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Events); lo += 1024 {
		if err := l.AppendRun(tr.Events[lo:min(lo+1024, len(tr.Events))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	hist, err := replay.OpenLive(walDir, m.Pipeline(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{Tenants: &monitor.TenantsConfig{
		New: func(name string) (monitor.TenantResources, error) {
			if name != monitor.DefaultTenant {
				return monitor.TenantResources{}, fmt.Errorf("this server serves only %q", monitor.DefaultTenant)
			}
			return monitor.TenantResources{Monitor: m, History: hist}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	if err := run([]string{"-addr", addr.String(), "-trace", "pvm/ring-300", "-at", strconv.Itoa(cutoff), "-sample", "5"}, &out); err != nil {
		t.Fatalf("-at %d -sample 5: %v\n%s", cutoff, err, out.String())
	}
	if !strings.Contains(out.String(), "5 sampled queries answered (remote), each in agreement with 2 reference implementations") {
		t.Errorf("-at %d -sample 5 printed:\n%s", cutoff, out.String())
	}
}

// statsStub answers STATS from a script, the last body repeating.
func statsStub(bodies ...string) func() (string, error) {
	return func() (string, error) {
		body := bodies[0]
		if len(bodies) > 1 {
			bodies = bodies[1:]
		}
		return body, nil
	}
}

// TestWatch drives -watch end to end against a two-tenant, two-lane server
// under a paced load, and then against scripted STATS bodies: what it reads
// out of a body, what it refuses to watch, and the interval arithmetic it
// prints.
func TestWatch(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 3000, 11)
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{Tenants: &monitor.TenantsConfig{
		New: func(string) (monitor.TenantResources, error) {
			m, err := monitor.NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 13}, hct.PipelineOptions{Shards: 2})
			if err != nil {
				return monitor.TenantResources{}, err
			}
			return monitor.TenantResources{Monitor: m, Close: func() error { m.Close(); return nil }}, nil
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
	if _, err := srv.Tenant("blue"); err != nil {
		t.Fatal(err)
	}

	// The load: both tenants get the stream, 50 events every 5 ms each, until
	// the watch is over or the stream is.
	stop, loaded := make(chan struct{}), make(chan error, 1)
	go func() {
		loaded <- func() error {
			sess, err := monitor.DialV2(addr.String())
			if err != nil {
				return err
			}
			defer sess.Close()
			for lo := 0; lo < len(tr.Events); lo += 50 {
				for _, tenant := range []string{monitor.DefaultTenant, "blue"} {
					if err := sess.SelectTenant(tenant); err != nil {
						return err
					}
					if err := sess.ReportBatch(tr.Events[lo:min(lo+50, len(tr.Events))]); err != nil {
						return err
					}
				}
				select {
				case <-stop:
					return nil
				case <-time.After(5 * time.Millisecond):
				}
			}
			return nil
		}()
	}()
	var out bytes.Buffer
	err = run([]string{"-addr", addr.String(), "-watch", "50ms", "-watch-count", "3"}, &out)
	close(stop)
	if lerr := <-loaded; lerr != nil {
		t.Fatalf("load: %v", lerr)
	}
	if err != nil {
		t.Fatalf("-watch: %v\n%s", err, &out)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if got := strings.Fields(lines[0]); strings.Join(got, " ") != "interval events/s batches/s queries/s ingested errors shard events/s" {
		t.Fatalf("header %q", lines[0])
	}
	var rows, blue int
	last := int64(0)
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		switch {
		case f[0] == "50ms":
			rows++
			if len(f) != 8 || !strings.HasPrefix(f[6], "[") || !strings.HasSuffix(f[7], "]") {
				t.Errorf("row %q: want six columns and a two-lane [a b] shard column", line)
				continue
			}
			ingested, err := strconv.ParseInt(f[4], 10, 64)
			if err != nil || ingested < last || ingested > 2*int64(len(tr.Events)) {
				t.Errorf("row %q: ingested %q after %d, with %d events sent at most", line, f[4], last, 2*len(tr.Events))
			}
			last = ingested
		case f[0] == "tenant" && f[1] == "blue":
			blue++
		case f[0] == "tenant" && f[1] == monitor.DefaultTenant:
		default:
			t.Errorf("unexpected line %q", line)
		}
	}
	if rows != 3 || blue != 3 {
		t.Errorf("%d interval rows and %d tenant blue rows, want 3 and 3:\n%s", rows, blue, &out)
	}
	if last == 0 {
		t.Errorf("nothing ingested by the last row:\n%s", &out)
	}

	// A body with none of the daemon's counters is not watched.
	for _, body := range []string{"hello world", "wal_records=5 storage=9"} {
		out.Reset()
		err := runWatch(&out, statsStub(body), time.Millisecond, 1)
		if err == nil || !strings.Contains(err.Error(), "carries no counters to watch") {
			t.Errorf("STATS %q: err %v, output %q", body, err, &out)
		}
	}

	// Labelled and plain fields in one body: each is read under its own key,
	// a label on an unknown key is nobody's tenant, and the row is the
	// difference of two bodies over the interval.
	out.Reset()
	err = runWatch(&out, statsStub(
		`ingested=900 tenant_events{tenant="blue"}=500 batches=30 other{tenant="blue"}=9`,
		`ingested=1000 tenant_events{tenant="blue"}=550 batches=32 other{tenant="green"}=19 proto_errors=1`,
	), 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("scripted watch printed %d lines, want header, row, tenant blue:\n%s", len(lines), &out)
	}
	if got, want := strings.Join(strings.Fields(lines[1]), " "), "50ms 2000 40 0 1000 1"; got != want {
		t.Errorf("scripted row %q, want %q", got, want)
	}
	if got, want := strings.Join(strings.Fields(lines[2]), " "), "tenant blue 1000 0 550"; got != want {
		t.Errorf("scripted tenant row %q, want %q", got, want)
	}
}
