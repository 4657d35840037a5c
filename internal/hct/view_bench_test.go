package hct

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// BenchmarkOneShotPrecedes is the measurement that decided what a live view
// is (DESIGN.md §10): one precedence query asked of the live view, which loads
// two watermarks; of a view captured for that one query, which loads one per
// process first; and of a view captured before the clock started, which is
// what each query of a batch pays. The daemon's configuration, over the widest
// computation of the corpus and a narrower one.
func BenchmarkOneShotPrecedes(b *testing.B) {
	for _, name := range []string{"pvm/ring-300", "pvm/treereduce-127"} {
		spec, ok := workload.Find(name)
		if !ok {
			b.Fatalf("no corpus computation %q", name)
		}
		tr := spec.Generate()
		ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			b.Fatal(err)
		}
		if err := ts.ObserveAll(tr); err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		pairs := make([][2]model.EventID, 1024)
		for i := range pairs {
			pairs[i][0] = tr.Events[r.Intn(len(tr.Events))].ID
			pairs[i][1] = tr.Events[r.Intn(len(tr.Events))].ID
		}
		buf := make(Watermark, tr.NumProcs)
		cut := ts.Live().Capture(nil)
		for _, mode := range []struct {
			name string
			ask  func(e, f model.EventID) (bool, error)
		}{
			{"live", ts.Live().Precedes},
			{"capture-then-ask", func(e, f model.EventID) (bool, error) { return ts.Live().Capture(buf).Precedes(e, f) }},
			{"captured", cut.Precedes},
		} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := mode.ask(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
