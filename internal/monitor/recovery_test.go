package monitor

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// recordingJournal forwards runs to a wal.Log while keeping the delivered
// sequence and the run boundaries in memory, so a recovery can be checked
// against exactly what was journaled.
type recordingJournal struct {
	l         *wal.Log
	delivered []model.Event
	runEnds   []int // cumulative event count after each run
}

func (j *recordingJournal) AppendRun(events []model.Event) error {
	if err := j.l.AppendRun(events); err != nil {
		return err
	}
	j.delivered = append(j.delivered, events...)
	j.runEnds = append(j.runEnds, len(j.delivered))
	return nil
}

func (j *recordingJournal) Stats() string { return j.l.Stats() }

// mixedTrace builds a computation exercising every event kind, including
// sync pairs whose run-atomic recovery is the delicate part.
func mixedTrace(nproc, steps int, seed int64) *model.Trace {
	b := model.NewBuilder("recovery/mixed", nproc)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		p := model.ProcessID(r.Intn(nproc))
		q := model.ProcessID((int(p) + 1 + r.Intn(nproc-1)) % nproc)
		switch r.Intn(4) {
		case 0:
			b.Unary(p)
		case 1, 2:
			b.Message(p, q)
		default:
			b.Sync(p, q)
		}
	}
	return b.Trace()
}

// TestCrashRecoveryProperty is the crash-injection battery: a computation is
// streamed through a journaled collector, the WAL is "torn" at a random byte
// offset as a crash would leave it, and the recovered monitor — after the
// lost tail is resubmitted — must answer the full precedence matrix exactly
// as an uninterrupted in-order run does. Along the way the recovered prefix
// itself must be run-atomic and byte-identical to what was journaled.
func TestCrashRecoveryProperty(t *testing.T) {
	traces := []*model.Trace{
		mixedTrace(6, 120, 0xC0),
		workload.RandomSparse(8, 3, 60, 0xC1),
		workload.RandomUniform(5, 70, 0xC2),
	}
	traces[1].Name = "recovery/sparse"
	traces[2].Name = "recovery/uniform"
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, tr := range traces {
		tr := tr
		t.Run(tr.Name, func(t *testing.T) {
			t.Parallel()
			cfg := hct.Config{MaxClusterSize: 5, Decider: strategy.NewMergeOnFirst()}
			ref, err := New(tr.NumProcs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.DeliverAll(tr); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < trials; trial++ {
				runCrashTrial(t, tr, cfg, ref, int64(trial))
			}
		})
	}
}

// crashImage reads the log directory as a crash at one instant would leave
// it. With SnapshotEvery > 0 the log compacts on its own goroutine — writing
// snap-*.tmp, renaming it, removing the files it covers — so a listing and the
// reads that follow it can straddle a compaction and describe no instant at
// all: a segment already removed, the snapshot covering it not yet listed.
// The caller has stopped appending, so at most one compaction is in flight;
// the copy is retaken until the directory listed the same before and after
// it, with no .tmp in it and every file still there to read.
func crashImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	list := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, ent := range entries {
			names[i] = ent.Name()
		}
		return names
	}
retake:
	for {
		names := list()
		image := make(map[string][]byte, len(names))
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if errors.Is(err, fs.ErrNotExist) || strings.HasSuffix(name, ".tmp") {
				time.Sleep(time.Millisecond) // the file system signals nothing to wait on
				continue retake
			}
			if err != nil {
				t.Fatal(err)
			}
			image[name] = data
		}
		if slices.Equal(names, list()) {
			return image
		}
	}
}

func runCrashTrial(t *testing.T, tr *model.Trace, cfg hct.Config, ref *Monitor, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(0xC4A5 ^ (seed << 8) ^ int64(len(tr.Events))))

	// Phase 1: journaled ingestion under a shuffled arrival order.
	walDir := t.TempDir()
	snapshotEvery := int64(0)
	if seed%2 == 1 {
		// Half the trials compact mid-stream so recovery crosses a
		// snapshot + tail boundary, not just a single segment.
		snapshotEvery = int64(len(tr.Events) / 3)
	}
	wlog, err := wal.Open(walDir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	rj := &recordingJournal{l: wlog}
	m1, err := New(tr.NumProcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCollector(m1)
	c1.journal = rj
	shuffled := make([]model.Event, len(tr.Events))
	for to, from := range r.Perm(len(tr.Events)) {
		shuffled[to] = tr.Events[from]
	}
	for lo := 0; lo < len(shuffled); {
		hi := lo + 1 + r.Intn(32)
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		if _, err := c1.SubmitBatch(shuffled[lo:hi]); err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		lo = hi
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: simulate the crash. The log directory is copied as the disk
	// would survive it, with the live (highest-base) segment torn at a
	// random byte offset.
	crashDir := t.TempDir()
	image := crashImage(t, walDir)
	var lastSeg string
	for name := range image {
		if strings.HasPrefix(name, "wal-") && name > lastSeg {
			lastSeg = name
		}
	}
	for name, data := range image {
		if name == lastSeg && len(data) > 24 {
			// Tear anywhere from just after the 24-byte header to one byte
			// short of complete.
			data = data[:24+r.Intn(len(data)-24)+1]
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: recover into a fresh monitor.
	w2, err := wal.Open(crashDir, wal.Options{NumProcs: tr.NumProcs})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer w2.Close()
	m2, err := New(tr.NumProcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []model.Event
	if err := w2.Replay(func(batch []model.Event) error {
		replayed = append(replayed, batch...)
		return m2.DeliverBatch(batch)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// The recovered prefix must be exactly what was journaled, cut at a run
	// boundary (records are run-atomic, so sync pairs are never split).
	R := len(replayed)
	if uint64(R) != w2.RecoveredEvents() {
		t.Fatalf("replayed %d events, RecoveredEvents says %d", R, w2.RecoveredEvents())
	}
	if R > len(rj.delivered) {
		t.Fatalf("recovered %d events, only %d were journaled", R, len(rj.delivered))
	}
	for i := 0; i < R; i++ {
		if replayed[i] != rj.delivered[i] {
			t.Fatalf("recovered event %d = %v, journaled %v", i, replayed[i], rj.delivered[i])
		}
	}
	atBoundary := R == 0
	for _, end := range rj.runEnds {
		if end == R {
			atBoundary = true
		}
	}
	if !atBoundary {
		t.Fatalf("recovery cut mid-run at event %d (run ends %v)", R, rj.runEnds)
	}

	// Phase 4: the processes resend everything not yet recovered (as real
	// instrumentation would after losing its acks) and the monitor must end
	// up answering the full precedence matrix exactly like the
	// uninterrupted reference.
	recovered := make(map[model.EventID]bool, R)
	for _, e := range replayed {
		recovered[e.ID] = true
	}
	c2 := NewCollector(m2)
	var rest []model.Event
	for _, e := range shuffled {
		if !recovered[e.ID] {
			rest = append(rest, e)
		}
	}
	for lo := 0; lo < len(rest); {
		hi := lo + 1 + r.Intn(32)
		if hi > len(rest) {
			hi = len(rest)
		}
		if _, err := c2.SubmitBatch(rest[lo:hi]); err != nil {
			t.Fatalf("post-recovery SubmitBatch: %v", err)
		}
		lo = hi
	}
	if held := c2.Held(); held != 0 {
		t.Fatalf("%d events held after post-recovery ingestion", held)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	for i := range tr.Events {
		for j := range tr.Events {
			a, b := tr.Events[i].ID, tr.Events[j].ID
			got, err1 := m2.Precedes(a, b)
			want, err2 := ref.Precedes(a, b)
			if err1 != nil || err2 != nil {
				t.Fatalf("Precedes(%v,%v): %v / %v", a, b, err1, err2)
			}
			if got != want {
				t.Fatalf("Precedes(%v,%v) = %v after recovery, reference %v", a, b, got, want)
			}
		}
	}
}

// TestCollectorJournalFailureIsFailStop pins what happens when AppendRun fails
// after the run was admitted. The pipeline's admission frontier is then ahead
// of the log and of the store, and nothing may let that show: the collector
// is closed for good, the store publishes exactly the journaled runs, and a
// recovery from the directory is the acknowledged prefix.
func TestCollectorJournalFailureIsFailStop(t *testing.T) {
	tr := mixedTrace(5, 120, 0xFA11)
	cfg := hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}
	walDir := t.TempDir()
	wlog, err := wal.Open(walDir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rj := &recordingJournal{l: wlog}
	m, err := NewWithOptions(tr.NumProcs, cfg, hct.PipelineOptions{Shards: 2, PlanQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := NewCollector(m)
	c.pipelined = true
	diskFull := errors.New("no space left on device")
	c.journal = failingJournal{RunJournal: rj, failAt: 6, runs: &rj.runEnds, err: diskFull}

	var failed bool
	for lo := 0; lo < len(tr.Events); lo += 8 {
		batch := tr.Events[lo:min(lo+8, len(tr.Events))]
		n, err := c.SubmitBatch(batch)
		switch {
		case failed:
			if n != 0 || !errors.Is(err, ErrClosed) {
				t.Fatalf("SubmitBatch after the journal failed = %d, %v; want 0, ErrClosed", n, err)
			}
		case err != nil:
			if !errors.Is(err, diskFull) {
				t.Fatalf("SubmitBatch: %v, want the journal's error", err)
			}
			failed = true
		}
	}
	if !failed {
		t.Fatal("the journal never failed: the test is not testing anything")
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Close after the journal failed = %v, want ErrClosed", err)
	}

	// The run that was admitted and not journaled moved the admission
	// frontier and nothing else.
	m.IngestBarrier()
	admitted := 0
	for _, next := range m.Pipeline().FrontierNext() {
		admitted += int(next - 1)
	}
	if admitted <= len(rj.delivered) {
		t.Fatalf("admission frontier counts %d events, journal %d: the failed run was not admitted first", admitted, len(rj.delivered))
	}
	if got := m.Stats(tr.NumProcs).Events; got != len(rj.delivered) {
		t.Fatalf("store holds %d events, journal %d", got, len(rj.delivered))
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(walDir, wal.Options{NumProcs: tr.NumProcs})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer w2.Close()
	m2, err := New(tr.NumProcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []model.Event
	if err := w2.Replay(func(batch []model.Event) error {
		replayed = append(replayed, batch...)
		return m2.DeliverBatch(batch)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !slices.Equal(replayed, rj.delivered) {
		t.Fatalf("recovered %d events, acknowledged %d", len(replayed), len(rj.delivered))
	}
	for _, e := range replayed {
		got, ok := m.Timestamp(e.ID)
		want, _ := m2.Timestamp(e.ID)
		if !ok || !sameTimestamp(got, want) {
			t.Fatalf("acknowledged event %v: live %v (%v), recovered %v", e.ID, got, ok, want)
		}
	}
}

// failingJournal fails every AppendRun from the failAt-th on.
type failingJournal struct {
	RunJournal
	failAt int
	runs   *[]int // the wrapped journal's run tally
	err    error
}

func (j failingJournal) AppendRun(events []model.Event) error {
	if len(*j.runs) >= j.failAt {
		return j.err
	}
	return j.RunJournal.AppendRun(events)
}
