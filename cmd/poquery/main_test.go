package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hct"
	"repro/internal/monitor"
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
	if err := l.Append(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv := monitor.NewServer(m, monitor.ServerConfig{})
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
