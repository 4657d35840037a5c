package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// buildChain writes runs into dir, syncing after each so the segment bytes
// are on disk, and returns the flattened events plus the byte offset of each
// record boundary in the (single) segment file.
func buildChain(t *testing.T, dir string, seed int64, nEvents int) (events []model.Event, numProcs int, recEnds []int64) {
	t.Helper()
	runs, numProcs := testRuns(t, seed, nEvents)
	l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segName(0))
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
		recEnds = append(recEnds, fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return flatten(runs), numProcs, recEnds
}

// chainEvents replays the whole chain and returns the flattened events.
func chainEvents(t *testing.T, c *Chain) []model.Event {
	t.Helper()
	var out []model.Event
	if err := c.ReplayRange(0, c.Events(), func(batch []model.Event) error {
		out = append(out, append([]model.Event(nil), batch...)...)
		return nil
	}); err != nil {
		t.Fatalf("ReplayRange: %v", err)
	}
	return out
}

// TestChainTornTailBoundaries pins the tricky truncation points of the final
// segment: a tear exactly on a record boundary is a clean end (not torn), a
// file cut back to exactly its header is a valid empty segment, and a file
// cut inside its header is a segment that crashed before its first commit, a
// leftover that contributes nothing and tears no record — in every case
// OpenChain yields the surviving prefix without error.
func TestChainTornTailBoundaries(t *testing.T) {
	master := t.TempDir()
	all, numProcs, recEnds := buildChain(t, master, 11, 240)
	full, err := os.ReadFile(filepath.Join(master, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Map each record end offset to the cumulative event count there.
	eventsAt := func(cut int64) uint64 {
		var n uint64
		pos := 0
		runs, _ := testRuns(t, 11, 240)
		for i, end := range recEnds {
			if end <= cut {
				pos += len(runs[i])
				n = uint64(pos)
			}
		}
		return n
	}

	cases := []struct {
		name     string
		cut      int64
		wantTorn bool
	}{
		{"exact-record-boundary", recEnds[len(recEnds)/2], false},
		{"last-record-boundary", recEnds[len(recEnds)-1], false},
		{"exactly-file-header", fileHeaderLen, false},
		{"mid-record", recEnds[len(recEnds)/2] + 3, true},
		{"mid-record-header", recEnds[len(recEnds)/2] + recordHeaderLen - 2, true},
		{"inside-file-header", fileHeaderLen - 5, false},
		{"empty-file", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenChain(dir, ChainOptions{NumProcs: numProcs})
			if err != nil {
				t.Fatalf("OpenChain: %v", err)
			}
			defer c.Close()
			want := eventsAt(tc.cut)
			if c.Events() != want {
				t.Fatalf("Events() = %d, want %d", c.Events(), want)
			}
			if c.torn != tc.wantTorn {
				t.Fatalf("torn = %v, want %v", c.torn, tc.wantTorn)
			}
			if got := chainEvents(t, c); !eventsEqual(got, all[:want]) {
				t.Fatalf("replayed %d events, not the %d-event prefix", len(got), want)
			}
			// The writer must recover the same prefix (and repair the tail).
			l, err := Open(dir, Options{NumProcs: numProcs, Sync: SyncNever})
			if err != nil {
				t.Fatalf("Open after chain: %v", err)
			}
			if l.RecoveredEvents() != want {
				t.Fatalf("Open recovered %d, chain saw %d", l.RecoveredEvents(), want)
			}
			l.Close()
		})
	}
}

// TestChainTornSeal corrupts a snapshot's seal footer: the snapshot must be
// skipped (never deleted — OpenChain is read-only) and history recovered
// from the segments a crashed compaction would have left behind.
func TestChainTornSeal(t *testing.T) {
	dir := t.TempDir()
	runs, numProcs := testRuns(t, 12, 300)
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
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Keep a copy of the pre-compaction segment so we can recreate the
	// crashed-compaction layout (snapshot written, inputs not yet removed).
	seg0, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, run := range runs[half:] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg0, 0o644); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	all := flatten(runs)

	// Baseline: intact snapshot, chain covers everything.
	c, err := OpenChain(dir, ChainOptions{NumProcs: numProcs})
	if err != nil {
		t.Fatal(err)
	}
	if c.snapped == 0 || c.Events() != uint64(len(all)) {
		t.Fatalf("baseline: snapped=%d events=%d, want snapshot + %d", c.snapped, c.Events(), len(all))
	}
	c.Close()

	snapBytes, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		name string
		mut  func() []byte
	}{
		{"seal-crc-flipped", func() []byte {
			b := append([]byte(nil), snapBytes...)
			b[len(b)-1] ^= 0xff
			return b
		}},
		{"seal-truncated", func() []byte { return snapBytes[:len(snapBytes)-sealLen+7] }},
		{"seal-missing", func() []byte { return snapBytes[:len(snapBytes)-sealLen] }},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			if err := os.WriteFile(snaps[0], d.mut(), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(snaps[0], snapBytes, 0o644)
			// Remove any sidecar so validation cannot shortcut the damage.
			os.Remove(sidecarPath(snaps[0]))
			c, err := OpenChain(dir, ChainOptions{NumProcs: numProcs})
			if err != nil {
				t.Fatalf("OpenChain with damaged seal: %v", err)
			}
			defer c.Close()
			if c.snapped != 0 {
				t.Fatalf("damaged snapshot adopted (snapped=%d)", c.snapped)
			}
			if c.Events() != uint64(len(all)) {
				t.Fatalf("Events() = %d, want %d from segments", c.Events(), len(all))
			}
			if got := chainEvents(t, c); !eventsEqual(got, all) {
				t.Fatal("segment fallback replayed the wrong history")
			}
			if _, err := os.Stat(snaps[0]); err != nil {
				t.Fatalf("read-only open deleted the snapshot: %v", err)
			}
		})
	}

	// Damage inside a sealed mid-chain segment is a hard error, not a
	// truncation: rotation sealed it, so a bad record means real corruption.
	t.Run("sealed-segment-corrupt", func(t *testing.T) {
		os.Remove(sidecarPath(snaps[0]))
		if err := os.WriteFile(snaps[0], snapBytes[:len(snapBytes)-1], 0o644); err != nil {
			t.Fatal(err) // force the segment path
		}
		defer os.WriteFile(snaps[0], snapBytes, 0o644)
		segPath := filepath.Join(dir, segName(0))
		// Earlier opens cached the sealed segment's record index; drop it so
		// the CRC scan actually runs (a sidecar deliberately skips it).
		os.Remove(sidecarPath(segPath))
		b := append([]byte(nil), seg0...)
		b[fileHeaderLen+recordHeaderLen+2] ^= 0xff
		if err := os.WriteFile(segPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(segPath, seg0, 0o644)
		if _, err := OpenChain(dir, ChainOptions{NumProcs: numProcs}); err == nil {
			t.Fatal("corrupt sealed segment accepted")
		}
	})
}

// TestChainSidecar exercises the .idx cache: written for sealed parts,
// reused on a second open, and rejected (with a clean rescan) when stale or
// corrupt.
func TestChainSidecar(t *testing.T) {
	dir := t.TempDir()
	runs, numProcs := testRuns(t, 13, 300)
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
	for _, run := range runs[half:] {
		if err := l.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	all := flatten(runs)
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	idx := sidecarPath(snaps[0])
	os.Remove(idx)

	open := func() *Chain {
		t.Helper()
		c, err := OpenChain(dir, ChainOptions{NumProcs: numProcs})
		if err != nil {
			t.Fatal(err)
		}
		if c.Events() != uint64(len(all)) {
			t.Fatalf("Events() = %d, want %d", c.Events(), len(all))
		}
		if got := chainEvents(t, c); !eventsEqual(got, all) {
			t.Fatal("replay mismatch")
		}
		return c
	}

	// First open scans and writes the sidecar; second open must load it and
	// agree on everything observable.
	c1 := open()
	bounds := c1.RunBoundaries()
	c1.Close()
	if _, err := os.Stat(idx); err != nil {
		t.Fatalf("sidecar not written for sealed snapshot: %v", err)
	}
	c2 := open()
	b2 := c2.RunBoundaries()
	c2.Close()
	if len(bounds) != len(b2) {
		t.Fatalf("run boundaries changed across sidecar reuse: %d vs %d", len(bounds), len(b2))
	}
	for i := range bounds {
		if bounds[i] != b2[i] {
			t.Fatalf("boundary %d: %d vs %d", i, bounds[i], b2[i])
		}
	}

	// A corrupt sidecar is a cache miss, never an error.
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(idx, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	open().Close()
	// Garbage shorter than any valid sidecar, same story.
	if err := os.WriteFile(idx, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	open().Close()
}
