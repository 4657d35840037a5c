// Command hctstamp timestamps a trace with a chosen clustering strategy and
// reports the space accounting: cluster receives, merges, and the average
// timestamp-size ratio against Fidge/Mattern under the fixed-vector
// encoding.
//
// Usage:
//
//	hctstamp -in trace.hctr -strategy merge-1st -maxcs 13
//	hctstamp -trace pvm/ring-64 -strategy static -maxcs 13 -v
//	tracegen -trace dce/rpc-72 | hctstamp -strategy merge-nth -threshold 10 -maxcs 24
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		in        = flag.String("in", "", "binary trace file (default stdin)")
		traceName = flag.String("trace", "", "generate this corpus computation instead of reading a file")
		strat     = flag.String("strategy", "merge-1st", "merge-1st | merge-nth | static | contiguous | none")
		threshold = flag.Float64("threshold", 10, "normalized CR threshold for merge-nth")
		maxCS     = flag.Int("maxcs", 13, "maximum cluster size")
		fixed     = flag.Int("fixed", metrics.DefaultFixedVector, "fixed encoding vector size")
		verbose   = flag.Bool("v", false, "print the final clustering")
	)
	flag.Parse()

	tr, err := loadTrace(*in, *traceName)
	if err != nil {
		fatal(err)
	}

	cfg := hct.Config{MaxClusterSize: *maxCS}
	switch *strat {
	case "merge-1st":
		cfg.Decider = strategy.NewMergeOnFirst()
	case "merge-nth":
		cfg.Decider = strategy.NewMergeOnNth(*threshold)
	case "static":
		groups := strategy.StaticGreedy(commgraph.FromTrace(tr), *maxCS)
		part, err := cluster.NewFromGroups(tr.NumProcs, groups)
		if err != nil {
			fatal(err)
		}
		cfg.Partition = part
	case "contiguous":
		part, err := cluster.NewFromGroups(tr.NumProcs, cluster.Contiguous(tr.NumProcs, *maxCS))
		if err != nil {
			fatal(err)
		}
		cfg.Partition = part
	case "none":
		// Singleton clusters, never merged: every receive from another
		// process is a cluster receive.
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strat))
	}

	ts, err := hct.NewTimestamper(tr.NumProcs, cfg)
	if err != nil {
		fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		fatal(err)
	}

	st, r := tr.Stats(), ts.Result()
	fmt.Printf("trace          %s\n", tr.Name)
	fmt.Printf("processes      %d\n", st.NumProcs)
	fmt.Printf("events         %d (%d messages, %d sync pairs, %d unary)\n",
		st.NumEvents, st.Messages, st.SyncPairs, st.Unary)
	fmt.Printf("strategy       %s, maxCS %d\n", *strat, *maxCS)
	fmt.Printf("cluster recvs  %d noted, %d merged\n", r.ClusterReceives, r.MergedReceives)
	fmt.Printf("merges         %d (%d live clusters, largest %d)\n", r.Merges, r.LiveClusters, r.MaxLiveCluster)
	total := hct.StorageInts(r.Events, r.ClusterReceives, *fixed, r.MaxClusterSize)
	fmRef := hct.StorageInts(r.Events, r.Events, *fixed, r.MaxClusterSize) // every event keeps its vector
	fmt.Printf("storage        %d ints vs %d Fidge/Mattern ints\n", total, fmRef)
	fmt.Printf("average ratio  %.4f\n", r.AverageRatio(*fixed))

	if *verbose {
		for _, inf := range ts.Partition().Live() {
			fmt.Printf("  cluster %d: %v\n", inf.ID, inf.Members)
		}
	}
}

func loadTrace(in, traceName string) (*model.Trace, error) {
	if traceName != "" {
		spec, ok := workload.Find(traceName)
		if !ok {
			return nil, fmt.Errorf("unknown computation %q", traceName)
		}
		return spec.Generate(), nil
	}
	if in == "" {
		return trace.ReadBinary(os.Stdin)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadBinary(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hctstamp: %v\n", err)
	os.Exit(1)
}
