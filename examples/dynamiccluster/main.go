// dynamiccluster watches the merge-on-Nth-communication strategy organize
// clusters online: as a DCE-style RPC computation streams into the monitor,
// the strategy counts cluster receives between cluster pairs and merges them
// once the normalized count passes the threshold. The example prints the
// cluster evolution as it happens.
package main

import (
	"fmt"
	"log"

	clusterts "repro"
)

func main() {
	spec, ok := clusterts.FindWorkload("dce/rpc-36")
	if !ok {
		log.Fatal("corpus workload missing")
	}
	tr := spec.Generate()
	fmt.Printf("%s: %d processes, %d events (synchronous RPC)\n\n", tr.Name, tr.NumProcs, tr.NumEvents())

	ts, err := clusterts.NewTimestamper(tr.NumProcs, clusterts.Config{
		MaxClusterSize: 13,
		Decider:        clusterts.MergeOnNth(5),
	})
	if err != nil {
		log.Fatal(err)
	}

	lastMerges := 0
	checkpoints := map[int]bool{}
	for i, e := range tr.Events {
		if err := ts.Ingest(e); err != nil {
			log.Fatalf("at %v: %v", e.ID, err)
		}
		if m := ts.Partition().Merges(); m != lastMerges {
			lastMerges = m
			// Report at most once per thousand events to keep the log
			// readable.
			bucket := i / 1000
			if !checkpoints[bucket] {
				checkpoints[bucket] = true
				fmt.Printf("event %6d: %3d merges, %3d live clusters (largest %2d), %5d cluster receives so far\n",
					i, m, ts.Partition().NumLive(), ts.Partition().MaxLiveSize(), ts.ClusterReceives())
			}
		}
	}

	fmt.Printf("\nfinal: %d merges, %d live clusters, %d noted cluster receives over %d events\n",
		ts.Partition().Merges(), ts.Partition().NumLive(), ts.ClusterReceives(), ts.Events())
	fmt.Println("final clusters (account affinity groups discovered online):")
	for _, inf := range ts.Partition().Live() {
		if inf.Size() > 1 {
			fmt.Printf("  %v\n", inf)
		}
	}
	singletons := 0
	for _, inf := range ts.Partition().Live() {
		if inf.Size() == 1 {
			singletons++
		}
	}
	fmt.Printf("  plus %d singleton clusters\n", singletons)

	total := ts.StorageInts(clusterts.DefaultFixedVector)
	fmRef := int64(ts.Events()) * clusterts.DefaultFixedVector
	fmt.Printf("\ntimestamp storage: %d ints vs %d for Fidge/Mattern (ratio %.3f)\n",
		total, fmRef, float64(total)/float64(fmRef))
}
