package hct

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestColumnarDifferentialCorpus is the container-equivalence battery for
// the columnar store: across the whole evaluation corpus and a maxCS sweep
// spanning the paper's 2..50 range, the column-backed timestamper must
// (a) hand back, for every event, a timestamp identical to the one the
// ingest path produced — the map-store semantics of earlier revisions,
// rebuilt in-test as an EventID-keyed reference map;
// (b) report a closed-form StorageInts equal to the per-timestamp walk the
// map store used to perform;
// (c) answer precedence queries identically to the Fidge/Mattern oracle —
// the full event-pair matrix on small computations, dense samples on big
// ones; and
// (d) hold, for every event, exactly the oracle's vector: Full == FM(e) for
// noted cluster receives, Proj == FM(e) projected on Cluster.Members
// otherwise. The timestamper is the one-lane pipeline, which computes its own
// clocks, so this is what ties the stamping core to package fm.
func TestColumnarDifferentialCorpus(t *testing.T) {
	specs := workload.Corpus()
	maxCSs := []int{2, 3, 5, 8, 13, 21, 34, 50}
	if testing.Short() {
		maxCSs = []int{2, 13, 50}
	}
	const fixedVector = 300
	for i, spec := range specs {
		if testing.Short() && i%5 != 0 {
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			stamped, err := fm.StampAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			clock := make(map[model.EventID]vclock.Clock, len(stamped))
			for _, st := range stamped {
				clock[st.Event.ID] = st.Clock
			}
			r := rand.New(rand.NewSource(0xC07 + int64(i)))

			for _, maxCS := range maxCSs {
				cfg := Config{MaxClusterSize: maxCS}
				switch i % 3 {
				case 0:
					cfg.Decider = strategy.NewMergeOnFirst()
				case 1:
					cfg.Decider = strategy.NewMergeOnNth(5)
				default:
					groups := strategy.StaticGreedy(commgraph.FromTrace(tr), maxCS)
					part, err := cluster.NewFromGroups(tr.NumProcs, groups)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Partition = part
				}
				ts, err := NewTimestamper(tr.NumProcs, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Ingest through Observe, mirroring every finalized
				// timestamp into the reference map.
				ref := make(map[model.EventID]*Timestamp, len(tr.Events))
				for _, e := range tr.Events {
					out, err := ts.Observe(e)
					if err != nil {
						t.Fatalf("maxCS=%d: Observe(%v): %v", maxCS, e.ID, err)
					}
					for _, st := range out {
						ref[st.ID] = st
					}
				}
				if len(ref) != len(tr.Events) {
					t.Fatalf("maxCS=%d: %d timestamps for %d events", maxCS, len(ref), len(tr.Events))
				}

				// (a)+(b): the columns must resolve every event to the same
				// timestamp the map held, and the O(1) StorageInts must equal
				// the walk over them.
				var walked int64
				for id, want := range ref {
					got, ok := ts.Timestamp(id)
					if !ok {
						t.Fatalf("maxCS=%d: Timestamp(%v) missing", maxCS, id)
					}
					if got.ID != want.ID || got.Kind != want.Kind || got.Partner != want.Partner ||
						got.Cluster != want.Cluster ||
						!vclock.Clock(got.Proj).Equal(vclock.Clock(want.Proj)) ||
						!got.Full.Equal(want.Full) {
						t.Fatalf("maxCS=%d: Timestamp(%v) = %v, ingest returned %v", maxCS, id, got, want)
					}
					walked += int64(want.StorageInts(fixedVector, maxCS))

					// (d): vector equality with the oracle.
					if got.Full != nil {
						if !got.Full.Equal(clock[id]) {
							t.Fatalf("maxCS=%d: %v Full = %v, Fidge/Mattern %v", maxCS, id, got.Full, clock[id])
						}
					} else if proj := clock[id].Project(got.Cluster.Members); !vclock.Clock(got.Proj).Equal(vclock.Clock(proj)) {
						t.Fatalf("maxCS=%d: %v Proj = %v over %v, Fidge/Mattern projects to %v", maxCS, id, got.Proj, got.Cluster, proj)
					}
				}
				if got := ts.StorageInts(fixedVector); got != walked {
					t.Fatalf("maxCS=%d: StorageInts closed form %d, walk %d", maxCS, got, walked)
				}

				// (c): precedence vs the Fidge/Mattern oracle.
				check := func(e, f model.EventID) {
					want := fm.Precedes(e, clock[e], f, clock[f])
					got, err := ts.Precedes(e, f)
					if err != nil {
						t.Fatalf("maxCS=%d: Precedes(%v,%v): %v", maxCS, e, f, err)
					}
					if got != want {
						t.Fatalf("maxCS=%d: Precedes(%v,%v) = %v, Fidge/Mattern %v", maxCS, e, f, got, want)
					}
				}
				if len(tr.Events) <= 150 {
					for a := range tr.Events {
						for b := range tr.Events {
							check(tr.Events[a].ID, tr.Events[b].ID)
						}
					}
				} else {
					samples := 3000
					if testing.Short() {
						samples = 600
					}
					for k := 0; k < samples; k++ {
						e := tr.Events[r.Intn(len(tr.Events))].ID
						f := tr.Events[r.Intn(len(tr.Events))].ID
						check(e, f)
						// e == f: the engine defines an event as not
						// concurrent with itself; the raw vector test says
						// otherwise, so compare only distinct pairs.
						if k%4 == 0 && e != f {
							want := fm.Concurrent(e, clock[e], f, clock[f])
							got, err := ts.Concurrent(e, f)
							if err != nil {
								t.Fatalf("maxCS=%d: Concurrent(%v,%v): %v", maxCS, e, f, err)
							}
							if got != want {
								t.Fatalf("maxCS=%d: Concurrent(%v,%v) = %v, Fidge/Mattern %v", maxCS, e, f, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestColumnPublishedCellsStableAcrossGrowth pins the reallocation
// invariant of the publication protocol: pointers and headers obtained
// before a column grows must keep reading correct, immutable cells after
// arbitrarily many reallocations.
func TestColumnPublishedCellsStableAcrossGrowth(t *testing.T) {
	var c tsColumn
	var early []*Timestamp
	for i := 1; i <= 4096; i++ {
		id := model.EventID{Process: 0, Index: model.EventIndex(i)}
		c.append(Timestamp{ID: id})
		c.publish()
		if i <= 8 {
			early = append(early, c.get(model.EventIndex(i)))
		}
	}
	for i, p := range early {
		if want := model.EventIndex(i + 1); p.ID.Index != want {
			t.Fatalf("early pointer %d mutated: %v", i, p.ID)
		}
	}
	for i := 1; i <= 4096; i++ {
		got := c.get(model.EventIndex(i))
		if got == nil || got.ID.Index != model.EventIndex(i) {
			t.Fatalf("get(%d) = %v", i, got)
		}
	}
	if c.get(0) != nil || c.get(4097) != nil {
		t.Fatal("out-of-range lookups must miss")
	}
	if c.getAt(3, 2) != nil {
		t.Fatal("lookup above a captured watermark must miss")
	}
	if got := c.getAt(2, 2); got == nil || got.ID.Index != 2 {
		t.Fatalf("getAt(2, 2) = %v", got)
	}
}

// TestArenaCarveDisjoint verifies that carved projection vectors can never
// overlap: each has capacity exactly its length, and chunk turnover at every
// size (including requests larger than the chunk) yields disjoint memory.
func TestArenaCarveDisjoint(t *testing.T) {
	var a arena
	r := rand.New(rand.NewSource(7))
	var all [][]int32
	next := int32(1)
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(40)
		if i%97 == 0 {
			n = arenaMinChunk + 50 // force an oversized request early on
		}
		s := a.carve(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("carve(%d): len=%d cap=%d", n, len(s), cap(s))
		}
		for j := range s {
			s[j] = next
			next++
		}
		all = append(all, s)
	}
	next = 1
	for i, s := range all {
		for j, v := range s {
			if v != next {
				t.Fatalf("slice %d[%d] = %d, want %d: carved slices overlap", i, j, v, next)
			}
			next++
		}
	}
	if a.carve(0) != nil {
		t.Fatal("carve(0) must be nil")
	}
}
