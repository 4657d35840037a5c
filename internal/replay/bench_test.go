package replay_test

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchWAL lazily builds one WAL directory (snapshot + segment tail) shared
// by the replay benchmarks: 64 processes, 20k events, compacted halfway so
// the chain exercises both part kinds.
var benchWAL struct {
	once     sync.Once
	dir      string
	trace    *model.Trace
	numProcs int
	err      error
}

func benchWALDir(b *testing.B) (string, *model.Trace) {
	w := &benchWAL
	w.once.Do(func() {
		w.trace = workload.RandomSparse(64, 3, 20000, 5)
		// Not b.TempDir(): that is torn down when the first benchmark ends,
		// and this directory is shared across all of them.
		w.dir, w.err = os.MkdirTemp("", "replay-bench-")
		if w.err != nil {
			return
		}
		l, err := wal.Open(w.dir, wal.Options{NumProcs: w.trace.NumProcs, Sync: wal.SyncNever})
		if err != nil {
			w.err = err
			return
		}
		half := len(w.trace.Events) / 2
		if err := l.AppendRun(w.trace.Events[:half]); err != nil {
			w.err = err
			return
		}
		if err := l.Compact(); err != nil {
			w.err = err
			return
		}
		if err := l.AppendRun(w.trace.Events[half:]); err != nil {
			w.err = err
			return
		}
		w.err = l.Close()
	})
	if w.err != nil {
		b.Fatal(w.err)
	}
	return w.dir, w.trace
}

func benchConfig() hct.Config {
	return hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}
}

// BenchmarkReplayOpen measures the cold path a `poquery -at` pays: open the
// chain (sidecar-accelerated after the first run) and materialize the full
// history into a queryable view.
func BenchmarkReplayOpen(b *testing.B) {
	dir, tr := benchWALDir(b)
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: benchConfig})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.ViewAt(replay.CutoffLatest); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}

// BenchmarkReplayQuery measures the steady state of the QUERY@ path: point
// precedence queries against an already-materialized historical view.
func BenchmarkReplayQuery(b *testing.B) {
	dir, tr := benchWALDir(b)
	st, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: benchConfig})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	v, err := st.ViewAt(uint64(3 * len(tr.Events) / 4))
	if err != nil {
		b.Fatal(err)
	}
	wm := v.Watermark()
	r := rand.New(rand.NewSource(1))
	qs := make([][2]model.EventID, 4096)
	for i := range qs {
		for {
			p1, p2 := r.Intn(len(wm)), r.Intn(len(wm))
			if wm[p1] == 0 || wm[p2] == 0 {
				continue
			}
			qs[i] = [2]model.EventID{
				{Process: model.ProcessID(p1), Index: model.EventIndex(1 + r.Int31n(wm[p1]))},
				{Process: model.ProcessID(p2), Index: model.EventIndex(1 + r.Int31n(wm[p2]))},
			}
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := v.Precedes(q[0], q[1]); err != nil {
			b.Fatal(err)
		}
	}
}
