package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at tiny scale against the in-process server,
// untraced and traced, and checks what the acceptance driver will check: each
// metric emitted exactly once under a legal name with a unit, no wrong
// answer, and a trace file whose spans nest.
func TestSmoke(t *testing.T) {
	if len(workloads) != 5 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics; want 5, at most 16, at most 128", len(workloads), len(endToEnd), len(perLayer))
	}
	dir := t.TempDir()
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			// Most of a tiny pass is waiting for the WAL's group commit, so
			// the workloads overlap; each has its own WAL directory.
			t.Parallel()
			o := runOptions{spec: spec, seed: 1, sc: scaleTiny, workDir: filepath.Join(dir, spec.name), outDir: filepath.Join(dir, "out"), log: io.Discard}
			for _, mode := range []struct {
				name string
				run  func(runOptions) (*runResult, error)
				defs []metricDef
			}{{"end-to-end", runEndToEnd, endToEnd}, {"per-layer", runLayers, perLayer}} {
				t.Run(mode.name, func(t *testing.T) { checkRun(t, o, mode.run, mode.defs) })
			}
			t.Run("trace-file", func(t *testing.T) { checkTraceFile(t, filepath.Join(o.outDir, "trace-"+spec.name+".json")) })
		})
	}
}

// checkRun runs one workload one way and checks its result line.
func checkRun(t *testing.T, o runOptions, run func(runOptions) (*runResult, error), defs []metricDef) {
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Wrong != 0 || res.Failed != 0 || res.Checked == 0 {
		t.Fatalf("wrong=%d failed=%d checked=%d", res.Wrong, res.Failed, res.Checked)
	}
	line, err := res.resultLine(defs)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line: %v\n%s", err, line)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 || len(out.Metrics) != len(defs) {
		t.Fatalf("result line: correct=%v attempted=%d failed=%d, %d metrics for %d definitions", out.Correct, out.Attempted, out.Failed, len(out.Metrics), len(defs))
	}
	seen := make(map[string]bool)
	for _, m := range defs {
		got, ok := out.Metrics[m.name]
		switch {
		case seen[m.name]:
			t.Errorf("%s defined twice", m.name)
		case !metricName.MatchString(m.name):
			t.Errorf("%s is not a legal metric name", m.name)
		case !ok || got.Value == nil || got.Unit != m.unit || m.unit == "":
			t.Errorf("%s: emitted %+v, want a value with unit %q", m.name, got, m.unit)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s = %v", m.name, *got.Value)
		}
		seen[m.name] = true
	}
}

// checkTraceFile asserts that every span's parent is in the file and that no
// span has negative duration or self time.
func checkTraceFile(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID     *int  `json:"id"`
				Parent int   `json:"parent"`
				Self   int64 `json:"self_ns"`
			}
		}
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := make(map[int]bool)
	for _, e := range file.TraceEvents {
		if e.Ph == "X" {
			ids[*e.Args.ID] = true
		}
	}
	if len(ids) < 100 {
		t.Fatalf("%s holds %d spans", path, len(ids))
	}
	nested := 0
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Args.Parent >= 0 {
			nested++
			if !ids[e.Args.Parent] {
				t.Errorf("span %d (%s): parent %d is not in the file", *e.Args.ID, e.Name, e.Args.Parent)
			}
		}
		if e.Dur < 0 || e.Args.Self < 0 {
			t.Errorf("span %d (%s): duration %v µs, self %d ns", *e.Args.ID, e.Name, e.Dur, e.Args.Self)
		}
	}
	if nested == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go and
// workloads.go saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.go %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q (why: %d chars)", i, bm.Workloads[i].Name, w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, metrics.go %d", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, m)
			}
		}
	}
	check("end-to-end", bm.EndToEnd, endToEnd)
	check("per-layer", bm.PerLayer, perLayer)
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize("x", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("got q1=%v median=%v q3=%v n=%d", s.Q1, s.Median, s.Q3, s.N)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s = summarize("x", []float64{1, 2, 4, 8, 16})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Fatalf("got q1=%v median=%v q3=%v", s.Q1, s.Median, s.Q3)
	}
}

func TestJudge(t *testing.T) {
	sum := func(xs ...float64) summary { return summarize("ms", xs) }
	for _, c := range []struct {
		name           string
		parent, change summary
		want           string
	}{
		{"steady and equal", sum(100, 101, 102, 103, 104), sum(101, 102, 103, 104, 105), "unchanged"},
		{"steady and slower", sum(100, 101, 102, 103, 104), sum(120, 121, 122, 123, 124), "regressed"},
		{"every pass faster", sum(100, 101, 102, 103, 104), sum(80, 81, 82, 83, 84), "improved"},
		{"too noisy to tell", sum(80, 90, 100, 110, 120), sum(85, 95, 103, 112, 125), "unresolved"},
		{"noisy but every pass slower", sum(80, 90, 100, 110, 120), sum(130, 150, 160, 170, 180), "regressed"},
	} {
		if got := judge(metricDef{name: "ack_p50_ms", better: "lower", bound: 0.10}, c.parent, c.change).decision; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A rate: higher is better.
	if got := judge(metricDef{name: "ingest_events_per_s", better: "higher", bound: 0.10}, sum(100, 101, 102), sum(80, 81, 82)).decision; got != "regressed" {
		t.Errorf("slower rate: %s, want regressed", got)
	}
}
