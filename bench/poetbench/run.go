package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const (
	minPasses = 5 // measured passes in a run, however short --seconds is
	giveUp    = 4 // a run still rerunning invalid passes after this many times --seconds fails: the box cannot pace the workload
	fullQuery = 500 * time.Millisecond
	tinyQuery = 20 * time.Millisecond
)

type runOptions struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	sc      scale
	poetd   string // the daemon binary; unused at tiny scale
	workDir string // WAL directories live here
	outDir  string // result and trace files
	log     io.Writer
}

// runResult is what a run writes to <outDir>/<workload>-seed<N>.json (traced
// runs: layers-<workload>-seed<N>.json) and what compare reads back.
type runResult struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Events    int                `json:"events_per_pass"`
	Passes    int                `json:"passes"`
	Invalid   []string           `json:"invalid_passes,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Wrong     int64              `json:"wrong_answers"`
	Checked   int64              `json:"answers_checked"`
	AtChecked int64              `json:"query_at_answers_checked"`
	Metrics   map[string]summary `json:"metrics"`
}

func (o runOptions) target(in *input) target {
	if o.sc == scaleTiny {
		return &inprocTarget{procs: in.procs, shards: o.spec.shards, planQueue: o.spec.planQueue, telemetry: true}
	}
	flags := append([]string{
		"-procs", strconv.Itoa(in.procs),
		"-fsync", "batch", "-snapshot-every", "0", "-log-level", "error",
	}, o.spec.daemonFlags...)
	return &procTarget{bin: o.poetd, flags: flags}
}

// runEndToEnd is one untraced run of a workload: a discarded warm-up pass,
// then measured passes for about o.seconds; each metric is the median over
// the measured passes.
func runEndToEnd(o runOptions) (*runResult, error) {
	in, err := buildInput(o.spec, o.seed, o.sc)
	if err != nil {
		return nil, err
	}
	tg := o.target(in)
	cfg := passConfig{workDir: o.workDir, queryPhase: fullQuery}
	want := minPasses
	if o.sc == scaleTiny {
		cfg.queryPhase, want = tinyQuery, 1
	} else if _, err := runPass(in, tg, cfg, 0); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}

	res := &runResult{
		Workload: o.spec.name, Why: o.spec.why, Seed: o.seed, Env: readEnvironment(),
		Events: len(in.arrival), Metrics: make(map[string]summary),
	}
	values := make(map[string][]float64)
	start := time.Now()
	for n := 1; ; n++ {
		p, err := runPass(in, tg, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		res.count(p.counters) // an invalid pass's answers are still checked
		if p.invalid != "" && o.sc == scaleFull {
			// A late generator measured itself, not the daemon: the pass is
			// listed, left out of the medians and run again.
			res.Invalid = append(res.Invalid, fmt.Sprintf("pass %d: %s", n, p.invalid))
			fmt.Fprintf(o.log, "pass %d invalid (%s), rerunning\n", n, p.invalid)
			if time.Since(start).Seconds() > giveUp*o.seconds {
				return nil, fmt.Errorf("%d valid passes after %.0f s; invalid: %v", res.Passes, time.Since(start).Seconds(), res.Invalid)
			}
			continue
		}
		res.Passes++
		for _, m := range passMetrics {
			values[m.name] = append(values[m.name], p.values[m.name])
		}
		fmt.Fprintf(o.log, "pass %d: %.2fs  ingest %.0f ev/s  ack p50 %.3f ms  recovery %.3f s\n",
			n, p.wallSeconds, p.values["ingest_events_per_s"], p.values["ack_p50_ms"], p.values["recovery_s"])
		elapsed := time.Since(start).Seconds()
		perPass := elapsed / float64(n)
		if res.Passes >= want && elapsed+perPass/2 >= o.seconds {
			break
		}
	}
	for _, m := range passMetrics {
		res.Metrics[m.name] = summarize(m.unit, values[m.name])
	}
	res.Correct = res.Wrong == 0 && res.Failed == 0
	return res, nil
}

// count adds one pass's correctness accounting.
func (r *runResult) count(c counters) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	r.Wrong += c.wrong
	r.Checked += c.checked
	r.AtChecked += c.atChecked
}

// write stores the result next to the traces.
func (r *runResult) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)
	if r.Traced {
		name = "layers-" + name
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// table prints every metric by name with its unit.
func (r *runResult) table(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\n%s  seed=%d  events/pass=%d  passes=%d  answers checked=%d (QUERY@ %d)  wrong=%d  failed=%d/%d\n",
		r.Workload, r.Seed, r.Events, r.Passes, r.Checked, r.AtChecked, r.Wrong, r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-50s %14s %-9s %14s %14s %3s  %s\n", "metric", "median", "unit", "q1", "q3", "n", "better")
	for _, m := range defs {
		s := r.Metrics[m.name]
		bound := ""
		if m.bound > 0 {
			bound = fmt.Sprintf(" (bound %.0f%%)", m.bound*100)
		} else if !r.Traced {
			bound = " (not gated)"
		}
		fmt.Fprintf(w, "  %-50s %14.6g %-9s %14.6g %14.6g %3d  %s%s\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N, m.better, bound)
	}
}

// resultLine is the one JSON object the acceptance driver reads from the
// last line of standard output.
func (r *runResult) resultLine(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed + r.Wrong, make(map[string]value)}
	for _, m := range defs {
		out.Metrics[m.name] = value{r.Metrics[m.name].Median, m.unit}
	}
	b, err := json.Marshal(out) // fails on a NaN or infinite metric
	return string(b), err
}
