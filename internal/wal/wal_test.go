package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// testRuns slices a generated trace into runs of random sizes, mimicking the
// variable-size runs the collector delivers.
func testRuns(t testing.TB, seed int64, nEvents int) (runs [][]model.Event, numProcs int) {
	t.Helper()
	tr := workload.RandomSparse(8, 3, nEvents/3, seed)
	r := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(tr.Events); {
		hi := lo + 1 + r.Intn(17)
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		runs = append(runs, tr.Events[lo:hi])
		lo = hi
	}
	return runs, tr.NumProcs
}

func flatten(runs [][]model.Event) []model.Event {
	var out []model.Event
	for _, r := range runs {
		out = append(out, r...)
	}
	return out
}

// replayAll collects every replayed batch (copied, since the batch slice is
// reused) and the batch boundaries.
func replayAll(t *testing.T, l *Log) (events []model.Event, batches int) {
	t.Helper()
	if err := l.Replay(func(batch []model.Event) error {
		events = append(events, batch...)
		batches++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return events, batches
}

func eventsEqual(a, b []model.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundtripAcrossReopen(t *testing.T) {
	runs, numProcs := testRuns(t, 1, 300)
	dir := t.TempDir()

	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	half := len(runs) / 2
	for _, run := range runs[:half] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the first half must come back run-for-run, and appending must
	// continue where it left off.
	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	wantHalf := flatten(runs[:half])
	if got := l.RecoveredEvents(); got != uint64(len(wantHalf)) {
		t.Fatalf("recovered %d events, want %d", got, len(wantHalf))
	}
	if l.TornTail() {
		t.Fatal("clean close reported a torn tail")
	}
	got, batches := replayAll(t, l)
	if !eventsEqual(got, wantHalf) {
		t.Fatalf("replay mismatch: %d events, want %d", len(got), len(wantHalf))
	}
	if batches != half {
		t.Fatalf("replay produced %d batches, want the original %d runs", batches, half)
	}
	for _, run := range runs[half:] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	all := flatten(runs)
	got, _ = replayAll(t, l)
	if !eventsEqual(got, all) {
		t.Fatalf("full replay mismatch: %d events, want %d", len(got), len(all))
	}
	if got := l.Appended(); got != uint64(len(all)) {
		t.Fatalf("Appended() = %d, want %d", got, len(all))
	}
}

// TestTornTailEveryOffset truncates the segment at every byte offset and
// checks that recovery always yields exactly the runs that were fully
// written, flags the tear, and accepts new appends afterwards.
func TestTornTailEveryOffset(t *testing.T) {
	runs, numProcs := testRuns(t, 2, 90)
	master := t.TempDir()
	l, err := Open(master, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Record the byte offset after each appended run so expected recovery
	// counts can be computed per truncation point.
	type mark struct {
		end    int64 // segment size after this run's record
		events int   // cumulative events through this run
	}
	var marks []mark
	segPath := filepath.Join(master, segName(0))
	cum := 0
	for _, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		cum += len(run)
		marks = append(marks, mark{end: fi.Size(), events: cum})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	all := flatten(runs)

	for cut := int64(fileHeaderLen); cut < int64(len(full)); cut++ {
		// Expected: the longest record prefix at or before the cut.
		wantEvents := 0
		clean := cut == fileHeaderLen
		for _, mk := range marks {
			if mk.end <= cut {
				wantEvents = mk.events
				clean = mk.end == cut
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if got := l.RecoveredEvents(); got != uint64(wantEvents) {
			t.Fatalf("cut %d: recovered %d events, want %d", cut, got, wantEvents)
		}
		if l.TornTail() == clean {
			t.Fatalf("cut %d: TornTail=%v, want %v", cut, l.TornTail(), !clean)
		}
		got, _ := replayAll(t, l)
		if !eventsEqual(got, all[:wantEvents]) {
			t.Fatalf("cut %d: replay is not the %d-event prefix", cut, wantEvents)
		}
		// The log must keep working after a truncation.
		if err := l.AppendRun(all[wantEvents : wantEvents+1]); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := l.RecoveredEvents(); got != uint64(wantEvents)+1 {
			t.Fatalf("cut %d: reopen recovered %d, want %d", cut, got, wantEvents+1)
		}
		l.Close()
	}
}

// TestCorruptMiddleRecord flips one byte inside the middle record: recovery
// must keep only the records before it, even though later records are intact.
func TestCorruptMiddleRecord(t *testing.T) {
	runs, numProcs := testRuns(t, 3, 60)
	dir := t.TempDir()
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var firstEnd int64
	for i, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fi, _ := os.Stat(filepath.Join(dir, segName(0)))
			firstEnd = fi.Size()
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+recordHeaderLen+2] ^= 0x40 // inside record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.TornTail() {
		t.Fatal("corrupt record not reported as torn")
	}
	if got := l.RecoveredEvents(); got != uint64(len(runs[0])) {
		t.Fatalf("recovered %d events, want only the first run's %d", got, len(runs[0]))
	}
}

func TestCompaction(t *testing.T) {
	runs, numProcs := testRuns(t, 4, 240)
	dir := t.TempDir()
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	half := len(runs) / 2
	for _, run := range runs[:half] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	wantSnap := uint64(len(flatten(runs[:half])))
	if got := l.snapCount; got != wantSnap {
		t.Fatalf("snapshot covers %d events, want %d", got, wantSnap)
	}
	if n := l.Counters().Snapshots.Value(); n != 1 {
		t.Fatalf("Snapshots counter = %d, want 1", n)
	}
	// The superseded segment must be gone; exactly one snapshot and the new
	// active segment remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir after compaction holds %v, want snapshot + active segment", names)
	}
	for _, run := range runs[half:] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _ := replayAll(t, l)
	if !eventsEqual(got, flatten(runs)) {
		t.Fatal("replay after compaction does not match the appended sequence")
	}
	// A second compaction folds the old snapshot and the tail together.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.snapCount; got != uint64(len(flatten(runs))) {
		t.Fatalf("second snapshot covers %d, want %d", got, len(flatten(runs)))
	}
}

func TestAutoSnapshot(t *testing.T) {
	runs, numProcs := testRuns(t, 5, 300)
	dir := t.TempDir()
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever, SnapshotEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil { // waits for the async compaction
		t.Fatal(err)
	}
	if l.Counters().Snapshots.Value() == 0 {
		t.Fatal("no automatic snapshot was cut")
	}
	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _ := replayAll(t, l)
	if !eventsEqual(got, flatten(runs)) {
		t.Fatal("replay with auto snapshots does not match the appended sequence")
	}
}

// TestCrashedCompactionLeftovers simulates the crash windows of a
// compaction: a half-written .tmp snapshot, a garbage sealed-looking
// snapshot, and a finished snapshot whose inputs were not yet deleted. All
// must recover to the same sequence.
func TestCrashedCompactionLeftovers(t *testing.T) {
	runs, numProcs := testRuns(t, 6, 120)
	dir := t.TempDir()
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	all := flatten(runs)

	// Crash mid-compaction: an unfinished .tmp and an unsealed .snap (its
	// seal never made it to disk) alongside the intact segments.
	if err := os.WriteFile(filepath.Join(dir, "snap-00000000000000ff.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	badSnap := filepath.Join(dir, snapName(uint64(len(all))))
	if err := os.WriteFile(badSnap, []byte("garbage that is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, l)
	if !eventsEqual(got, all) {
		t.Fatal("recovery with crashed-compaction leftovers lost events")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, leftover := range []string{"snap-00000000000000ff.tmp", snapName(uint64(len(all)))} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
			t.Fatalf("leftover %s survived recovery", leftover)
		}
	}
}

func TestNumProcsMismatchRejected(t *testing.T) {
	runs, numProcs := testRuns(t, 7, 30)
	dir := t.TempDir()
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRun(runs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NumProcs: numProcs + 1, Sync: SyncNever}); err == nil {
		t.Fatal("Open with a different process count succeeded")
	} else if !strings.Contains(err.Error(), "processes") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// readDirImage returns every entry of dir by name with its bytes; a
// subdirectory is recorded as "<name>/" with no bytes.
func readDirImage(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		if ent.IsDir() {
			img[ent.Name()+"/"] = nil
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[ent.Name()] = b
	}
	return img
}

// writeDirImage materializes the files of img in a fresh directory.
func writeDirImage(t testing.TB, img map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range img {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenRefusalLeavesDirectoryUntouched holds Open to classify-then-repair:
// whatever makes the scan refuse a directory — the wrong process count, a
// file that is not this log's, an unreadable file, a gap, damage inside a
// sealed segment, alone or next to a crash shape Open would otherwise repair
// — Open returns an error having removed and truncated nothing, so undoing
// the damage (or passing the right options) recovers every event. The
// directory is a compacted one whose second compaction crashed after
// rotating: snapshot, sealed segment, active segment.
func TestOpenRefusalLeavesDirectoryUntouched(t *testing.T) {
	runs, numProcs := testRuns(t, 14, 360)
	opts := Options{NumProcs: numProcs, Sync: SyncNever}
	a, b := len(runs)/3, 2*len(runs)/3
	nA := uint64(len(flatten(runs[:a])))
	nB := uint64(len(flatten(runs[:b])))
	all := flatten(runs)

	src := t.TempDir()
	l, err := Open(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendRuns := func(rs [][]model.Event) {
		t.Helper()
		for _, run := range rs {
			if err := l.AppendRun(run); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRuns(runs[:a])
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	appendRuns(runs[a:b])
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	firstCompaction := readDirImage(t, src) // snap-A + wal-A holding runs[a:b]
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	appendRuns(runs[b:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	pristine := readDirImage(t, src)
	delete(pristine, snapName(nB))
	for name, bytes := range firstCompaction {
		pristine[name] = bytes
	}
	snap, sealedSeg, activeSeg := snapName(nA), segName(nA), segName(nB)
	for _, name := range []string{snap, sealedSeg, activeSeg} {
		if _, ok := pristine[name]; !ok || len(pristine) != 3 {
			t.Fatalf("layout is %d files without %s, want snapshot + sealed + active segment", len(pristine), name)
		}
	}
	lastRun := len(runs[len(runs)-1])

	cases := []struct {
		name   string
		opts   Options
		damage func(t *testing.T, dir string) // nil: the options are what is wrong
		want   int                            // events recoverable once the damage is undone
	}{
		{name: "wrong-process-count", opts: Options{NumProcs: numProcs + 1, Sync: SyncNever}, want: len(all)},
		{name: "foreign-snapshot-magic", opts: opts, want: len(all), damage: func(t *testing.T, dir string) {
			b := append([]byte(nil), pristine[snap]...)
			copy(b, segMagic)
			binary.BigEndian.PutUint32(b[20:], crc32.Checksum(b[:20], crcTable))
			if err := os.WriteFile(filepath.Join(dir, snap), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "snapshot-name-disagrees-with-header", opts: opts, want: len(all), damage: func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, snap), filepath.Join(dir, snapName(nA+1))); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "snapshot-unreadable", opts: opts, want: len(all), damage: func(t *testing.T, dir string) {
			// A directory opens and stats but cannot be read or mapped.
			if err := os.Remove(filepath.Join(dir, snap)); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(filepath.Join(dir, snap), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "gap", opts: opts, want: len(all), damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, sealedSeg)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "flipped-byte-in-sealed-segment", opts: opts, want: len(all), damage: func(t *testing.T, dir string) {
			b := append([]byte(nil), pristine[sealedSeg]...)
			b[fileHeaderLen+recordHeaderLen+2] ^= 0x40
			if err := os.WriteFile(filepath.Join(dir, sealedSeg), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn-tail-and-gap", opts: opts, want: len(all) - lastRun, damage: func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, activeSeg), int64(len(pristine[activeSeg])-3)); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, sealedSeg)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeDirImage(t, pristine)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			before := readDirImage(t, dir)
			if l, err := Open(dir, tc.opts); err == nil {
				l.Close()
				t.Fatal("Open accepted the directory")
			}
			if after := readDirImage(t, dir); !reflect.DeepEqual(after, before) {
				for name := range before {
					if _, ok := after[name]; !ok {
						t.Errorf("refused Open removed %s", name)
					} else if len(after[name]) != len(before[name]) {
						t.Errorf("refused Open resized %s: %d -> %d bytes", name, len(before[name]), len(after[name]))
					}
				}
				t.Fatal("refused Open changed the directory")
			}
			// Undo the refusal's cause, and only that: a torn tail stays torn.
			os.Remove(filepath.Join(dir, snap)) // the directory standing in for it
			os.Remove(filepath.Join(dir, snapName(nA+1)))
			for _, name := range []string{snap, sealedSeg} {
				if err := os.WriteFile(filepath.Join(dir, name), pristine[name], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("Open after undoing the damage: %v", err)
			}
			defer l.Close()
			if got, _ := replayAll(t, l); !eventsEqual(got, all[:tc.want]) {
				t.Fatalf("recovered %d events after the refusal, want the first %d", len(got), tc.want)
			}
		})
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
	for _, name := range []string{"always", "batch", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("policy %q round-trips to %q", name, p.String())
		}
	}

	runs, numProcs := testRuns(t, 8, 60)
	l, err := Open(t.TempDir(), Options{NumProcs: numProcs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, run := range runs {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Counters().Fsyncs.Value(); got < int64(len(runs)) {
		t.Fatalf("SyncAlways issued %d fsyncs for %d appends", got, len(runs))
	}

	// SyncBatch must reach the disk via the interval timer without an
	// explicit Sync call.
	lb, err := Open(t.TempDir(), Options{NumProcs: numProcs, Sync: SyncBatch, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	if err := lb.AppendRun(runs[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for lb.Counters().Fsyncs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group-commit timer never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLifecycleErrors(t *testing.T) {
	runs, numProcs := testRuns(t, 9, 30)
	l, err := Open(t.TempDir(), Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRun(runs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func([]model.Event) error { return nil }); err == nil {
		t.Fatal("Replay after Append succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRun(runs[0]); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("Open without NumProcs succeeded")
	}
}

func TestStatsSurface(t *testing.T) {
	runs, numProcs := testRuns(t, 10, 30)
	l, err := Open(t.TempDir(), Options{NumProcs: numProcs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendRun(runs[0]); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	for _, key := range []string{"wal_records=", "wal_events=", "wal_bytes=", "wal_fsyncs=", "wal_torn="} {
		if !strings.Contains(s, key) {
			t.Fatalf("Stats() %q missing %q", s, key)
		}
	}
}
