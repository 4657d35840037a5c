package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/model"
)

// faultFS is the OS file system with one fault armed at a time: calls of
// operation op ("write", "sync", "syncdir", "open" or "read") on a path containing
// match fail with err — every such call, or only the first when once is set
// — until clear. It also lists the fsyncs the log asks of it.
type faultFS struct {
	osFS
	mu    sync.Mutex
	op    string
	match string
	err   error
	once  bool
	hits  int      // faults injected so far
	syncs []string // "sync <file>" and "syncdir <dir>", by base name, in call order
}

func (f *faultFS) arm(op, match string, err error, once bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op, f.match, f.err, f.once = op, match, err, once
}

func (f *faultFS) clear() { f.arm("", "", nil, false) }

func (f *faultFS) injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// takeSyncs returns the fsyncs issued since the last call.
func (f *faultFS) takeSyncs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.syncs
	f.syncs = nil
	return out
}

// fault returns the error the call op on path meets, if any.
func (f *faultFS) fault(op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == "sync" || op == "syncdir" {
		f.syncs = append(f.syncs, op+" "+filepath.Base(path))
	}
	if f.err == nil || op != f.op || !strings.Contains(path, f.match) {
		return nil
	}
	f.hits++
	err := f.err
	if f.once {
		f.err = nil
	}
	return err
}

func (f *faultFS) OpenRead(path string) (readFile, error) {
	if err := f.fault("open", path); err != nil {
		return nil, err
	}
	rf, err := f.osFS.OpenRead(path)
	if err != nil {
		return nil, err
	}
	return &faultReadFile{rf, f, path}, nil
}

// faultReadFile routes a file's reads of records, the bytes past its header,
// past its faultFS.
type faultReadFile struct {
	readFile
	fs   *faultFS
	path string
}

func (f *faultReadFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= fileHeaderLen {
		if err := f.fs.fault("read", f.path); err != nil {
			return 0, err
		}
	}
	return f.readFile.ReadAt(p, off)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.fault("syncdir", dir); err != nil {
		return err
	}
	return f.osFS.SyncDir(dir)
}

func (f *faultFS) Create(path string) (file, error) {
	fl, err := f.osFS.Create(path)
	return f.wrap(path, fl, err)
}

func (f *faultFS) Append(path string) (file, error) {
	fl, err := f.osFS.Append(path)
	return f.wrap(path, fl, err)
}

func (f *faultFS) wrap(path string, fl file, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return faultFile{fl, f, path}, nil
}

// faultFile routes a file's writes and fsyncs past its faultFS.
type faultFile struct {
	file
	fs   *faultFS
	path string
}

func (f faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fault("write", f.path); err != nil {
		return 0, err
	}
	return f.file.Write(p)
}

func (f faultFile) Sync() error {
	if err := f.fs.fault("sync", f.path); err != nil {
		return err
	}
	return f.file.Sync()
}

// assertFailStopped requires every later AppendRun, Sync and Compact of l to
// return an error, and then Close.
func assertFailStopped(t *testing.T, l *Log, outcome string) {
	t.Helper()
	runs, _ := testRuns(t, 1, 30)
	if err := l.AppendRun(runs[0]); err == nil {
		t.Errorf("%s: AppendRun after the failure returned nil", outcome)
	}
	if err := l.Sync(); err == nil {
		t.Errorf("%s: Sync after the failure returned nil", outcome)
	}
	if err := l.Compact(); err == nil {
		t.Errorf("%s: Compact after the failure returned nil", outcome)
	}
	if err := l.Close(); err == nil {
		t.Errorf("%s: Close after the failure returned nil", outcome)
	}
}

// TestFailedFsyncIsSticky fails one fsync and then lets every later one
// succeed, the way Linux reports a writeback error once: the log must keep
// failing rather than vouch for pages the kernel may have dropped. Under
// SyncAlways the failing AppendRun reports it; under SyncBatch the group-commit
// timer meets it, with nobody to tell but the next caller. The directory
// rows fail the directory fsync of a fresh log's first group commit
// [segment-durable-at-commit], which may have left the segment unlisted;
// opening the empty directory issues no fsync, so it does not meet the fault.
func TestFailedFsyncIsSticky(t *testing.T) {
	runs, numProcs := testRuns(t, 31, 90)
	for _, dirFsync := range []bool{false, true} {
		for _, policy := range []SyncPolicy{SyncAlways, SyncBatch} {
			name, what := policy.String(), "fsync"
			if dirFsync {
				name, what = "directory-"+name, "directory fsync"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				ffs := &faultFS{}
				if dirFsync {
					ffs.arm("syncdir", dir, syscall.EIO, true)
				}
				l, err := openLog(ffs, dir, Options{NumProcs: numProcs, Sync: policy, SyncInterval: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				if !dirFsync {
					if err := l.AppendRun(runs[0]); err != nil {
						t.Fatal(err)
					}
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
					ffs.arm("sync", "wal-", syscall.EIO, true)
				}
				err = l.AppendRun(runs[1])
				if policy == SyncAlways && !errors.Is(err, syscall.EIO) {
					t.Fatalf("AppendRun whose %s failed = %v, want EIO", what, err)
				}
				for deadline := time.Now().Add(5 * time.Second); ffs.injected() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("the group commit never reached the failing %s", what)
					}
				}
				if err := l.AppendRun(runs[2]); !errors.Is(err, syscall.EIO) {
					t.Fatalf("AppendRun after the failed %s = %v, want the latched EIO", what, err)
				}
				if err := l.Sync(); !errors.Is(err, syscall.EIO) {
					t.Fatalf("Sync after the failed %s = %v, want the latched EIO", what, err)
				}
				l.Close()
			})
		}
	}
}

// TestFreshSegmentDurableAtFirstCommit counts the fsyncs on the seam
// [segment-durable-at-commit]. Opening an empty directory and a compaction's
// rotation each create a segment and issue no fsync of it; the first group
// commit after either fsyncs the segment and then the directory, and later
// commits the segment alone. Reopening appends to the last segment, so it
// creates none, but the scan read that segment through the page cache: the
// first commit after any Open fsyncs the directory too, also when the
// segment's creator died before committing it. Under SyncAlways the first
// acknowledged append is that commit; under SyncNever it is Sync.
func TestFreshSegmentDurableAtFirstCommit(t *testing.T) {
	runs, numProcs := testRuns(t, 34, 120)
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			ffs := &faultFS{}
			syncDir := "syncdir " + filepath.Base(dir)
			expect := func(what string, want ...string) {
				t.Helper()
				if got := ffs.takeSyncs(); !slices.Equal(got, want) {
					t.Errorf("%s issued fsyncs %q, want %q", what, got, want)
				}
			}
			var l *Log
			next := 0
			commit := func(what string, want ...string) {
				t.Helper()
				if err := l.AppendRun(runs[next]); err != nil {
					t.Fatal(err)
				}
				next++
				if policy != SyncAlways {
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				expect(what, want...)
			}
			dead, err := openLog(ffs, dir, Options{NumProcs: numProcs, Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer dead.f.Close()
			expect("opening an empty directory")
			// dead's process dies here: its segment was never committed.
			if l, err = openLog(ffs, dir, Options{NumProcs: numProcs, Sync: policy}); err != nil {
				t.Fatal(err)
			}
			expect("reopening a directory whose only segment was never committed")
			commit("the first commit", "sync "+segName(0), syncDir)
			commit("the second commit", "sync "+segName(0))

			cutoff := uint64(len(runs[0]) + len(runs[1]))
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			expect("a compaction, whose rotation adds nothing to its snapshot's commit",
				fmt.Sprintf("sync snap-%016x.tmp", cutoff), syncDir, syncDir)
			commit("the first commit after the rotation", "sync "+segName(cutoff), syncDir)
			commit("the second commit after the rotation", "sync "+segName(cutoff))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			expect("closing a committed log")

			if l, err = openLog(ffs, dir, Options{NumProcs: numProcs, Sync: policy}); err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			expect("reopening")
			commit("the first commit after reopening", "sync "+segName(cutoff), syncDir)
			commit("the second commit after reopening", "sync "+segName(cutoff))
		})
	}
}

// TestFailedRotationReopens fails a compaction's rotation at each of its two
// disk steps under SyncAlways. Writing the fresh segment's header fails in
// Compact: the log stops at the cutoff, because an AppendRun that went on
// into the old segment would run it past the base of the segment the rotation
// left behind, and Open drops that husk and recovers exactly what was
// acknowledged. The directory fsync that publishes the segment is issued by
// the first group commit after the rotation [segment-durable-at-commit]: the
// AppendRun that meets it fails, the log fail-stops, and Open accepts the
// snapshot and the fresh segment, which starts at the cutoff, with every
// acknowledged event and perhaps the failed run, whose bytes were fsynced.
func TestFailedRotationReopens(t *testing.T) {
	runs, numProcs := testRuns(t, 32, 240)
	half := len(runs) / 2
	cutoff := uint64(len(flatten(runs[:half])))
	for _, tc := range []struct {
		name, op, match string
		atCompact       bool // the fault surfaces in Compact, not in the next AppendRun
	}{
		{name: "segment-header-write", op: "write", match: segName(cutoff), atCompact: true},
		{name: "directory-fsync-at-first-commit", op: "syncdir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := &faultFS{}
			l, err := openLog(ffs, dir, Options{NumProcs: numProcs, Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			var acked []model.Event
			for _, run := range runs[:half] {
				if err := l.AppendRun(run); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, run...)
			}
			failed := runs[half]
			if tc.atCompact {
				ffs.arm(tc.op, tc.match, syscall.EIO, true)
				if err := l.Compact(); !errors.Is(err, syscall.EIO) {
					t.Fatalf("Compact whose rotation failed = %v, want EIO", err)
				}
				failed = nil
			} else {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				ffs.arm(tc.op, tc.match, syscall.EIO, true)
			}
			for _, run := range runs[half:] {
				if err := l.AppendRun(run); err == nil {
					acked = append(acked, run...)
					t.Errorf("AppendRun after the failed rotation returned nil")
				} else if !errors.Is(err, syscall.EIO) {
					t.Fatalf("AppendRun after the failed rotation = %v, want the latched EIO", err)
				}
			}
			if ffs.injected() != 1 {
				t.Fatalf("%d faults injected, want 1", ffs.injected())
			}
			if err := l.Close(); err == nil {
				t.Error("Close after the failed rotation returned nil")
			}

			l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
			if err != nil {
				t.Fatalf("Open after the failed rotation: %v", err)
			}
			defer l.Close()
			got, _ := replayAll(t, l)
			if !eventsEqual(got, acked) && !eventsEqual(got, append(acked[:len(acked):len(acked)], failed...)) {
				t.Fatalf("recovered %d events, want the %d acknowledged (or those and the %d of the failed run)", len(got), len(acked), len(failed))
			}
		})
	}
}

// TestWALFaults injects the disk's failures one at a time into a compacted
// SyncAlways log. Each row names its outcome: a fault on the write path
// fail-stops the log, and once it clears Open recovers every acknowledged
// event (and perhaps the run whose fsync failed, whose bytes did reach the
// file); a fault in Open's scan is a refusal that leaves the directory byte
// for byte as it was, and once it clears Open recovers everything. The
// crash rows take the directory's image right after a rotation, before the
// first group commit made the fresh segment durable
// [segment-durable-at-commit], with that segment as a crash can leave it:
// Open recovers exactly the durable events and appends on from them. A failed
// read is an error, never damage the scan could repair [reads-below-valid].
func TestWALFaults(t *testing.T) {
	runs, numProcs := testRuns(t, 33, 360)
	all := flatten(runs)
	opts := Options{NumProcs: numProcs, Sync: SyncAlways}
	cases := []struct {
		name, outcome string
		op, match     string
		err           error
		once          bool
		atOpen        bool   // armed for the reopen, not for the appends
		image         string // crash rows: the fresh segment is "missing", "empty" or "short"
	}{
		{name: "enospc-on-segment-write", outcome: "AppendRun fails, the log fail-stops, reopen recovers what was acknowledged",
			op: "write", match: "wal-", err: syscall.ENOSPC},
		{name: "eio-on-fsync", outcome: "AppendRun fails, the log fail-stops, reopen recovers what was acknowledged",
			op: "sync", match: "wal-", err: syscall.EIO, once: true},
		{name: "eio-opening-sealed-part", outcome: "Open refuses with the directory untouched, and recovers once the fault clears",
			op: "open", match: "snap-", err: syscall.EIO, atOpen: true},
		{name: "eio-on-segment-read", outcome: "Open refuses with the directory untouched, and recovers once the fault clears",
			op: "read", match: "wal-", err: syscall.EIO, atOpen: true},
		{name: "crash-before-first-commit-segment-missing", outcome: "Open recovers exactly the durable events",
			image: "missing"},
		{name: "crash-before-first-commit-segment-empty", outcome: "Open drops the husk and recovers exactly the durable events",
			image: "empty"},
		{name: "crash-before-first-commit-short-header", outcome: "Open drops the husk and recovers exactly the durable events",
			image: "short"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := &faultFS{}
			l, err := openLog(ffs, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, b := len(runs)/3, 2*len(runs)/3
			acked := 0
			for i, run := range runs[:b] {
				if i == a {
					if err := l.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.AppendRun(run); err != nil {
					t.Fatal(err)
				}
				acked += len(run)
			}
			if tc.image != "" {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				img := readDirImage(t, dir)
				fresh := segName(uint64(acked))
				if len(img[fresh]) != fileHeaderLen {
					t.Fatalf("the rotation left %s with %d bytes, want its %d-byte header", fresh, len(img[fresh]), fileHeaderLen)
				}
				switch tc.image {
				case "missing":
					delete(img, fresh)
				case "empty":
					img[fresh] = nil
				case "short":
					img[fresh] = img[fresh][:fileHeaderLen/2]
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				crashed := writeDirImage(t, img)
				for i, want := range []int{acked, acked + len(runs[b])} {
					l, err := openLog(ffs, crashed, opts)
					if err != nil {
						t.Fatalf("%s: Open of the crash image: %v", tc.outcome, err)
					}
					if l.TornTail() {
						t.Fatalf("%s: Open reported a torn tail, but no record was torn", tc.outcome)
					}
					if got, _ := replayAll(t, l); !eventsEqual(got, all[:want]) {
						t.Fatalf("%s: recovered %d events, want exactly the %d durable", tc.outcome, len(got), want)
					}
					if i == 0 {
						if err := l.AppendRun(runs[b]); err != nil {
							t.Fatal(err)
						}
					}
					l.Close()
				}
				return
			}
			if tc.atOpen {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				ffs.arm(tc.op, tc.match, tc.err, tc.once)
				before := readDirImage(t, dir)
				if l, err := openLog(ffs, dir, opts); err == nil {
					l.Close()
					t.Fatalf("%s: Open accepted the directory", tc.outcome)
				} else if !errors.Is(err, tc.err) {
					t.Fatalf("%s: Open = %v, want %v", tc.outcome, err, tc.err)
				}
				if !reflect.DeepEqual(readDirImage(t, dir), before) {
					t.Fatalf("%s: the refused Open changed the directory", tc.outcome)
				}
			} else {
				ffs.arm(tc.op, tc.match, tc.err, tc.once)
				var failed bool
				for _, run := range runs[b:] {
					if err := l.AppendRun(run); err != nil {
						if !errors.Is(err, tc.err) {
							t.Fatalf("%s: AppendRun = %v, want %v", tc.outcome, err, tc.err)
						}
						failed = true
						break
					}
					acked += len(run)
				}
				if !failed {
					t.Fatalf("%s: the fault never surfaced", tc.outcome)
				}
				assertFailStopped(t, l, tc.outcome)
			}
			if ffs.injected() == 0 {
				t.Fatalf("%s: no fault was injected", tc.outcome)
			}

			ffs.clear()
			l, err = openLog(ffs, dir, opts)
			if err != nil {
				t.Fatalf("%s: Open after the fault cleared: %v", tc.outcome, err)
			}
			defer l.Close()
			got, _ := replayAll(t, l)
			if len(got) < acked || !eventsEqual(got, all[:len(got)]) {
				t.Fatalf("%s: recovered %d events, want a prefix of the delivered sequence holding the %d acknowledged", tc.outcome, len(got), acked)
			}
		})
	}
}

// TestReplayRangeReadFault fails every read of an open chain's segment:
// ReplayRange returns the error, and once the fault clears the next call
// streams every recorded event [reads-below-valid].
func TestReplayRangeReadFault(t *testing.T) {
	runs, numProcs := testRuns(t, 35, 300)
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
	ffs := &faultFS{}
	c, err := scanChain(ffs, dir, numProcs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ffs.arm("read", "wal-", syscall.EIO, false)
	delivered := 0
	err = c.ReplayRange(0, c.Events(), func(batch []model.Event) error {
		delivered += len(batch)
		return nil
	})
	if !errors.Is(err, syscall.EIO) || delivered != 0 {
		t.Fatalf("ReplayRange over failing reads = %v after %d events, want EIO before any", err, delivered)
	}
	ffs.clear()
	if got := chainEvents(t, c); !eventsEqual(got, flatten(runs)) {
		t.Fatalf("ReplayRange after the fault cleared returned %d events, not the %d recorded", len(got), len(flatten(runs)))
	}
}
