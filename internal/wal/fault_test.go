package wal

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/model"
)

// faultFS is the OS file system with one fault armed at a time: calls of
// operation op ("write", "sync", "syncdir" or "map") on a path containing
// match fail with err — every such call, or only the first when once is set
// — until clear.
type faultFS struct {
	osFS
	mu    sync.Mutex
	op    string
	match string
	err   error
	once  bool
	hits  int // faults injected so far
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

// fault returns the error the call op on path meets, if any.
func (f *faultFS) fault(op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
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

func (f *faultFS) Map(path string) ([]byte, func() error, error) {
	if err := f.fault("map", path); err != nil {
		return nil, nil, err
	}
	return f.osFS.Map(path)
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
// timer meets it, with nobody to tell but the next caller.
func TestFailedFsyncIsSticky(t *testing.T) {
	runs, numProcs := testRuns(t, 31, 90)
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			ffs := &faultFS{}
			l, err := openLog(ffs, t.TempDir(), Options{NumProcs: numProcs, Sync: policy, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendRun(runs[0]); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.arm("sync", "wal-", syscall.EIO, true)
			err = l.AppendRun(runs[1])
			if policy == SyncAlways && !errors.Is(err, syscall.EIO) {
				t.Fatalf("AppendRun whose fsync failed = %v, want EIO", err)
			}
			for deadline := time.Now().Add(5 * time.Second); ffs.injected() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the group commit never reached the failing fsync")
				}
			}
			if err := l.AppendRun(runs[2]); !errors.Is(err, syscall.EIO) {
				t.Fatalf("AppendRun after the failed fsync = %v, want the latched EIO", err)
			}
			if err := l.Sync(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Sync after the failed fsync = %v, want the latched EIO", err)
			}
			l.Close()
		})
	}
}

// TestFailedRotationReopens fails the directory fsync that publishes the
// fresh segment of a compaction's rotation. The log must stop at the cutoff:
// an AppendRun that went on into the old segment would run it past the base of
// the segment the rotation left behind, and Open would refuse the overlap.
// Open accepts the directory and recovers exactly what was acknowledged.
func TestFailedRotationReopens(t *testing.T) {
	runs, numProcs := testRuns(t, 32, 240)
	dir := t.TempDir()
	ffs := &faultFS{}
	l, err := openLog(ffs, dir, Options{NumProcs: numProcs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	half := len(runs) / 2
	var acked []model.Event
	for _, run := range runs[:half] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, run...)
	}
	ffs.arm("syncdir", dir, syscall.EIO, true)
	if err := l.Compact(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact whose rotation failed = %v, want EIO", err)
	}
	for _, run := range runs[half:] {
		if err := l.AppendRun(run); err == nil {
			acked = append(acked, run...)
			t.Errorf("AppendRun after the failed rotation returned nil")
		}
	}
	if err := l.Close(); err == nil {
		t.Error("Close after the failed rotation returned nil")
	}

	l, err = Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open after the failed rotation: %v", err)
	}
	defer l.Close()
	if got := l.RecoveredEvents(); got != uint64(len(acked)) {
		t.Fatalf("RecoveredEvents() = %d, want the %d acknowledged", got, len(acked))
	}
	if got, _ := replayAll(t, l); !eventsEqual(got, acked) {
		t.Fatal("recovery is not the acknowledged sequence")
	}
}

// TestWALFaults injects the disk's failures one at a time into a compacted
// SyncAlways log. Each row names its outcome: a fault on the write path
// fail-stops the log, and once it clears Open recovers every acknowledged
// event (and perhaps the run whose fsync failed, whose bytes did reach the
// file); a fault in Open's scan is a refusal that leaves the directory byte
// for byte as it was, and once it clears Open recovers everything.
//
// Out of scope: EIO on a page of a part that is already mapped arrives as
// SIGBUS, not as an error (DESIGN.md §8).
func TestWALFaults(t *testing.T) {
	runs, numProcs := testRuns(t, 33, 360)
	all := flatten(runs)
	opts := Options{NumProcs: numProcs, Sync: SyncAlways}
	cases := []struct {
		name, outcome string
		op, match     string
		err           error
		once          bool
		atOpen        bool // armed for the reopen, not for the appends
	}{
		{name: "enospc-on-segment-write", outcome: "AppendRun fails, the log fail-stops, reopen recovers what was acknowledged",
			op: "write", match: "wal-", err: syscall.ENOSPC},
		{name: "eio-on-fsync", outcome: "AppendRun fails, the log fail-stops, reopen recovers what was acknowledged",
			op: "sync", match: "wal-", err: syscall.EIO, once: true},
		{name: "eio-mapping-sealed-part", outcome: "Open refuses with the directory untouched, and recovers once the fault clears",
			op: "map", match: "snap-", err: syscall.EIO, atOpen: true},
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
