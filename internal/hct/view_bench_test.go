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
// computation of the corpus, a narrower one and scattered-stream's
// (RandomUniform(280), half of whose events are noted cluster receives).
//
// The warm modes ask the live view a working set the size of one QUERY batch
// of the benchmark (256 pairs) over and over, so the lines of the store they
// touch stay in cache: 1024 random pairs over a store this size miss on
// nearly every load, which hides a cost that only an extra load on a warm
// store shows. The direct mode keeps only pairs answered from f's own
// projection — e on another process, inside f's cluster — which is a small
// share of random pairs (≈8% on spmd-stream) and the path a projection's form
// prices most plainly: one resolve of f's frame, through its anchor for a
// nibble frame, for both its epoch and the component. The routed modes keep
// only pairs whose answer is routed through the notes, where every consulted
// component is a read of a noted cluster receive's stored vector.
func BenchmarkOneShotPrecedes(b *testing.B) {
	for _, c := range []struct {
		name string
		tr   func() *model.Trace
	}{
		{"pvm/ring-300", nil},
		{"pvm/treereduce-127", nil},
		{"random-uniform-280", func() *model.Trace { return workload.RandomUniform(280, 30000, 1) }},
	} {
		gen := c.tr
		if gen == nil {
			spec, ok := workload.Find(c.name)
			if !ok {
				b.Fatalf("no corpus computation %q", c.name)
			}
			gen = spec.Generate
		}
		tr := gen()
		ts, err := NewTimestamper(tr.NumProcs, Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			b.Fatal(err)
		}
		if err := ts.ObserveAll(tr); err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		var pairs, direct, routed [][2]model.EventID
		for len(pairs) < 1024 || len(direct) < 1024 || len(routed) < 1024 {
			p := [2]model.EventID{tr.Events[r.Intn(len(tr.Events))].ID, tr.Events[r.Intn(len(tr.Events))].ID}
			directBefore, before := ts.QueryPathCounts()
			if _, err := ts.Precedes(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
			directAfter, after := ts.QueryPathCounts()
			if after > before && len(routed) < 1024 {
				routed = append(routed, p)
			}
			if directAfter > directBefore && p[0].Process != p[1].Process && !ts.Live().cell(p[1]).noted() && len(direct) < 1024 {
				direct = append(direct, p)
			}
			if len(pairs) < 1024 {
				pairs = append(pairs, p)
			}
		}
		buf := make(Watermark, tr.NumProcs)
		cut := ts.Live().Capture(nil)
		for _, mode := range []struct {
			name  string
			pairs [][2]model.EventID
			ask   func(e, f model.EventID) (bool, error)
		}{
			{"live", pairs, ts.Live().Precedes},
			{"capture-then-ask", pairs, func(e, f model.EventID) (bool, error) { return ts.Live().Capture(buf).Precedes(e, f) }},
			{"captured", pairs, cut.Precedes},
			{"warm", pairs[:256], ts.Live().Precedes},
			{"direct", direct, ts.Live().Precedes},
			{"routed", routed, ts.Live().Precedes},
			{"routed-warm", routed[:256], ts.Live().Precedes},
		} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := mode.pairs[i%len(mode.pairs)]
					if _, err := mode.ask(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
