// Command poetbench measures the real poetd end to end and its layers one by
// one. bench/run.sh builds poetd and this program and passes its arguments on;
// see bench/README.md for the scenario, the metrics and how to read them.
//
//	poetbench --workload spmd-stream --seed 1 --seconds 15 --trace 0
//	poetbench --workload spmd-stream --trace 1     per-layer metrics and a trace file
//	poetbench                                      every workload, untraced
//	poetbench --selfcheck                          every workload twice; medians must agree
//	poetbench compare A.json B.json                B against A, metric by metric
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them)")
		seed      = flag.Int64("seed", 1, "input seed; 2 is the held-out seed")
		seconds   = flag.Float64("seconds", 15, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: the traced per-layer run; 0: the end-to-end run")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if a median moves by more than its bound")
		poetd     = flag.String("poetd", ".bench_build/poetd", "the daemon binary")
		workDir   = flag.String("work", ".bench_build/work", "directory for WAL directories")
		outDir    = flag.String("out", "bench/out", "directory for result and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "poetbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	specs := workloads
	if *name != "" {
		spec, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "poetbench:", err)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	o := runOptions{seed: *seed, seconds: *seconds, poetd: *poetd, workDir: *workDir, outDir: *outDir, log: os.Stderr}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(o, specs)
	case *trace == 1:
		err = runAll(o, specs, runLayers, perLayer, perLayer)
	default:
		err = runAll(o, specs, runEndToEnd, passMetrics, endToEnd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "poetbench:", err)
		os.Exit(1)
	}
}

// runAll runs each workload, prints the table of shown metrics and, last,
// the result line of the metrics BENCHMARK.json lists. A wrong answer or a
// failed operation is an error: the numbers of a daemon that answers wrongly
// are not worth reading.
func runAll(o runOptions, specs []workloadSpec, run func(runOptions) (*runResult, error), shown, defs []metricDef) error {
	var bad error
	for _, spec := range specs {
		o.spec = spec
		res, err := run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		path, err := res.write(o.outDir)
		if err != nil {
			return err
		}
		res.table(os.Stdout, shown)
		fmt.Printf("  results: %s\n", path)
		line, err := res.resultLine(defs)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		fmt.Println(line)
		if !res.Correct {
			bad = errors.Join(bad, fmt.Errorf("%s: %d wrong answers, %d failed operations of %d", spec.name, res.Wrong, res.Failed, res.Attempted))
		}
	}
	return bad
}
