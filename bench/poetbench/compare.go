package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is how one metric of a change compares with its parent.
type verdict struct {
	metric   string
	parent   summary
	change   summary
	bound    float64
	worse    float64 // share of the parent's median by which the change is worse (negative: better)
	spread   float64 // the wider of the two sides' interquartile spreads
	decision string  // regressed | improved | unchanged | unresolved | not gated
}

// separated reports whether every value of one side beats every value of the
// other, and which side wins.
func separated(parent, change []float64, better string) (changeWins, parentWins bool) {
	if len(parent) == 0 || len(change) == 0 {
		return false, false
	}
	pLo, pHi := quantile(parent, 0), quantile(parent, 1)
	cLo, cHi := quantile(change, 0), quantile(change, 1)
	if better == "higher" {
		return cLo > pHi, pLo > cHi
	}
	return cHi < pLo, pHi < cLo
}

// judge applies the metric's own bound. A difference inside the bound is
// "unchanged" only when the runs are steady enough to tell: if either side's
// spread is wider than the bound, the verdict is "unresolved" unless one side
// beats the other on every pass. A metric without a bound is shown, not
// judged: two result files cannot tell a change from the box changing speed.
func judge(m metricDef, parent, change summary) verdict {
	v := verdict{metric: m.name, parent: parent, change: change, bound: m.bound}
	if parent.Median != 0 {
		v.worse = (change.Median - parent.Median) / parent.Median
		if m.better == "higher" {
			v.worse = -v.worse
		}
	}
	v.spread = max(parent.spread(), change.spread())
	changeWins, parentWins := separated(parent.Values, change.Values, m.better)
	switch {
	case m.bound == 0:
		v.decision = "not gated"
	case parentWins && v.worse > m.bound:
		v.decision = "regressed"
	case changeWins:
		v.decision = "improved"
	case v.spread > m.bound:
		v.decision = "unresolved"
	case v.worse > m.bound:
		v.decision = "regressed"
	default:
		v.decision = "unchanged"
	}
	return v
}

// compareResults judges every metric both results hold.
func compareResults(parent, change *runResult) []verdict {
	var out []verdict
	for _, m := range passMetrics {
		p, okP := parent.Metrics[m.name]
		c, okC := change.Metrics[m.name]
		if okP && okC {
			out = append(out, judge(m, p, c))
		}
	}
	return out
}

func printVerdicts(w io.Writer, vs []verdict) (regressed, unresolved int) {
	fmt.Fprintf(w, "  %-28s %14s %14s %9s %8s %7s  %s\n", "metric", "parent", "change", "worse by", "spread", "bound", "verdict")
	for _, v := range vs {
		bound := "-"
		if v.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", v.bound*100)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %8.1f%% %7.1f%% %7s  %s\n",
			v.metric, v.parent.Median, v.change.Median, v.worse*100, v.spread*100, bound, v.decision)
		switch v.decision {
		case "regressed":
			regressed++
		case "unresolved":
			unresolved++
		}
	}
	return regressed, unresolved
}

func loadResult(path string) (*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain is `poetbench compare PARENT.json CHANGE.json`. It exits 1 on a
// regression and 2 when the files cannot be compared at all.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: poetbench compare PARENT.json CHANGE.json")
		return 2
	}
	parent, change, err := loadPair(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "poetbench compare:", err)
		return 2
	}
	fmt.Printf("%s: %s (parent, %s) vs %s (change, %s)\n", parent.Workload, args[0], parent.Env.Commit, args[1], change.Env.Commit)
	regressed, unresolved := printVerdicts(os.Stdout, compareResults(parent, change))
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

func loadPair(a, b string) (parent, change *runResult, err error) {
	if parent, err = loadResult(a); err != nil {
		return nil, nil, err
	}
	if change, err = loadResult(b); err != nil {
		return nil, nil, err
	}
	return parent, change, comparable(parent, change)
}

// comparable refuses to set side by side numbers that were not taken the
// same way on the same kind of box.
func comparable(a, b *runResult) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("different workloads: %s and %s", a.Workload, b.Workload)
	case a.Traced != b.Traced:
		return fmt.Errorf("one result is traced and the other is not")
	case a.Seed != b.Seed || a.Events != b.Events:
		return fmt.Errorf("different inputs: seed %d with %d events and seed %d with %d events", a.Seed, a.Events, b.Seed, b.Events)
	case !a.Env.comparable(b.Env):
		return fmt.Errorf("different environments: %+v and %+v", a.Env, b.Env)
	}
	return nil
}

// selfCheck runs every workload twice on this tree and fails when a median
// moves by more than the metric's own bound between the two: a metric that
// cannot repeat cannot gate a change.
func selfCheck(o runOptions, specs []workloadSpec) error {
	failed := 0
	for _, spec := range specs {
		o.spec = spec
		first, err := runEndToEnd(o)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		second, err := runEndToEnd(o)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		if !first.Correct || !second.Correct {
			return fmt.Errorf("%s: wrong answers or failed operations", spec.name)
		}
		fmt.Printf("\n%s  seed=%d  first run vs second run of the same tree\n", spec.name, o.seed)
		vs := compareResults(first, second)
		printVerdicts(os.Stdout, vs)
		for _, v := range vs {
			if v.bound > 0 && math.Abs(v.worse) > v.bound {
				fmt.Printf("  NOT REPEATABLE: %s moved %.1f%%, bound %.0f%%\n", v.metric, v.worse*100, v.bound*100)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same tree", failed)
	}
	fmt.Println("\nselfcheck passed: every end-to-end median repeated within its bound")
	return nil
}
