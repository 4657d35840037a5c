package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/model"
)

// fuzzChainSeed builds one pristine WAL directory layout (snapshot + sealed
// segment + active segment) and the delivered event sequence, once, and
// hands out byte-for-byte copies: the fuzz engine calls the target millions
// of times and must not pay a full log build per call.
var fuzzChainSeed struct {
	once     sync.Once
	files    map[string][]byte
	events   []model.Event
	numProcs int
	err      error
}

func fuzzChainDir(t testing.TB) (dir string, events []model.Event, numProcs int) {
	s := &fuzzChainSeed
	s.once.Do(func() {
		src := t.TempDir()
		runs, np := testRuns(t, 99, 150)
		l, err := Open(src, Options{NumProcs: np, Sync: SyncNever})
		if err != nil {
			s.err = err
			return
		}
		half := len(runs) / 2
		for _, run := range runs[:half] {
			if err := l.AppendRun(run); err != nil {
				s.err = err
				return
			}
		}
		// Keep the pre-compaction segment: restoring it next to the snapshot
		// gives the fuzzer the crashed-compaction layout too (overlapping
		// coverage), which the chain must handle.
		seg0, err := os.ReadFile(filepath.Join(src, segName(0)))
		if err != nil {
			s.err = err
			return
		}
		if err := l.Compact(); err != nil {
			s.err = err
			return
		}
		for _, run := range runs[half:] {
			if err := l.AppendRun(run); err != nil {
				s.err = err
				return
			}
		}
		if err := l.Close(); err != nil {
			s.err = err
			return
		}
		s.files = readDirImage(t, src)
		s.files[segName(0)] = seg0
		s.events = flatten(runs)
		s.numProcs = np
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return writeDirImage(t, s.files), s.events, s.numProcs
}

// FuzzWALChainOpen mutilates a valid WAL directory under fuzzer control —
// truncated tails, flipped bytes, deleted files, duplicated files under
// other names, appended garbage — and requires OpenChain to either fail
// cleanly or return a chain that replays an exact prefix-consistent view of
// the original delivery sequence. It must never panic and never misread: a
// surviving chain's events at global position i are the events the writer
// delivered at position i.
//
// Recovery is held to the read-only open on a byte copy of the same
// directory: Open refuses exactly what OpenChain refuses and then leaves the
// copy unchanged; what it accepts it recovers and replays run for run as the
// chain does, and its repairs drop nothing — a second OpenChain over the
// repaired copy yields the same chain, no longer torn.
func FuzzWALChainOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x00, 0x20})             // truncate first file
	f.Add([]byte{1, 1, 0x00, 0x40})             // flip a byte
	f.Add([]byte{2, 0, 0, 0})                   // delete a file
	f.Add([]byte{3, 2, 0x12, 0x34})             // duplicate under another name
	f.Add([]byte{4, 1, 0x00, 0x08})             // append garbage
	f.Add([]byte{1, 0, 0x00, 0x17, 2, 1, 0, 0}) // header damage + delete
	f.Add([]byte{0, 2, 0x00, 0x18, 4, 0, 0x01, 0x00, 1, 2, 0x00, 0x05})

	f.Fuzz(func(t *testing.T, ops []byte) {
		dir, all, numProcs := fuzzChainDir(t)

		// Apply the fuzzer's damage program: 4-byte ops over the directory's
		// current file set (sorted for determinism).
		for len(ops) >= 4 {
			op, fsel := ops[0]%5, ops[1]
			arg := binary.BigEndian.Uint16(ops[2:4])
			ops = ops[4:]
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) == 0 {
				break
			}
			names := make([]string, 0, len(ents))
			for _, e := range ents {
				names = append(names, e.Name())
			}
			sort.Strings(names)
			name := names[int(fsel)%len(names)]
			path := filepath.Join(dir, name)
			switch op {
			case 0: // truncate to arg (clamped)
				if fi, err := os.Stat(path); err == nil {
					n := int64(arg)
					if n > fi.Size() {
						n = fi.Size()
					}
					os.Truncate(path, n)
				}
			case 1: // flip one byte at arg (mod size)
				if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
					b[int(arg)%len(b)] ^= 0xff
					os.WriteFile(path, b, 0o644)
				}
			case 2: // delete
				os.Remove(path)
			case 3: // duplicate under a different (valid-looking) name
				if b, err := os.ReadFile(path); err == nil {
					dup := segName(uint64(arg))
					if arg%2 == 1 {
						dup = snapName(uint64(arg))
					}
					os.WriteFile(filepath.Join(dir, dup), b, 0o644)
				}
			case 4: // append garbage derived from the op itself
				if fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
					junk := make([]byte, int(arg)%97+1)
					for i := range junk {
						junk[i] = byte(int(arg) + i)
					}
					fh.Write(junk)
					fh.Close()
				}
			}
		}

		// The image is read before OpenChain, which may add index sidecars.
		damaged := readDirImage(t, dir)
		rdir := writeDirImage(t, damaged)
		c, err := OpenChain(dir, ChainOptions{NumProcs: numProcs})
		l, lerr := Open(rdir, Options{NumProcs: numProcs, Sync: SyncNever})
		if (err == nil) != (lerr == nil) {
			t.Fatalf("OpenChain: %v, but Open: %v", err, lerr)
		}
		if err != nil {
			// A clean error is always acceptable under damage, and a refused
			// recovery has touched nothing.
			if !reflect.DeepEqual(readDirImage(t, rdir), damaged) {
				t.Fatalf("Open refused the directory (%v) after changing it", lerr)
			}
			return
		}
		defer c.Close()
		defer l.Close()

		// Whatever survived must be internally consistent...
		if c.Events() > uint64(len(all)) {
			t.Fatalf("chain claims %d events, writer only delivered %d", c.Events(), len(all))
		}
		bounds := c.RunBoundaries()
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("run boundaries not ascending: %v", bounds)
			}
		}
		if len(bounds) > 0 && bounds[len(bounds)-1] != c.Events() {
			t.Fatalf("last boundary %d != Events() %d", bounds[len(bounds)-1], c.Events())
		}
		// ...and byte-identical to the delivered sequence at every position:
		// CRC framing means damage can only shorten history, never alter it.
		var got []model.Event
		if err := c.ReplayRange(0, c.Events(), func(batch []model.Event) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatalf("chain opened but ReplayRange failed: %v", err)
		}
		if uint64(len(got)) != c.Events() {
			t.Fatalf("ReplayRange yielded %d events, chain claims %d", len(got), c.Events())
		}
		for i, e := range got {
			if e != all[i] {
				t.Fatalf("event %d misread: got %+v, delivered %+v", i, e, all[i])
			}
		}

		if l.RecoveredEvents() != c.Events() {
			t.Fatalf("Open recovered %d events, chain has %d", l.RecoveredEvents(), c.Events())
		}
		var recovered []model.Event
		var recoveredBounds []uint64
		if err := l.Replay(func(batch []model.Event) error {
			recovered = append(recovered, batch...)
			recoveredBounds = append(recoveredBounds, uint64(len(recovered)))
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !eventsEqual(recovered, got) || !reflect.DeepEqual(recoveredBounds, bounds) {
			t.Fatalf("Replay yielded %d events in %d runs, chain %d in %d", len(recovered), len(recoveredBounds), len(got), len(bounds))
		}
		repaired, err := OpenChain(rdir, ChainOptions{NumProcs: numProcs})
		if err != nil {
			t.Fatalf("OpenChain after Open's repairs: %v", err)
		}
		defer repaired.Close()
		if repaired.Torn() || !reflect.DeepEqual(repaired.RunBoundaries(), bounds) || !eventsEqual(chainEvents(t, repaired), got) {
			t.Fatalf("repaired chain: torn=%v, %d events, want the %d the scan accepted", repaired.Torn(), repaired.Events(), c.Events())
		}
	})
}
