package related

import (
	"fmt"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/vclock"
)

// DiffEntry is one changed vector component.
type DiffEntry struct {
	Proc  int32
	Value int32
}

// DiffStamp is an event's differentially-encoded Fidge/Mattern timestamp:
// the components that changed relative to the event's in-process
// predecessor (for a process's first event, relative to the zero vector).
type DiffStamp struct {
	ID      model.EventID
	Changed []DiffEntry
}

// sizeInts returns the storage charge: two integers per changed component.
func (d *DiffStamp) sizeInts() int { return 2 * len(d.Changed) }

// Differential stores differentially-encoded timestamps for a computation —
// the Singhal/Kshemkalyani-inspired technique Section 2.4 reports evaluating
// inside the partial-order data structure. Reconstructing an event's full
// vector requires accumulating the diffs of all its in-process predecessors,
// so precedence tests cost O(chain length) instead of O(1).
type Differential struct {
	numProcs int
	// perProc holds each process's diff stamps in index order (position
	// k = event index k+1).
	perProc [][]*DiffStamp
	events  int
}

// newDifferential returns an empty store for numProcs processes.
func newDifferential(numProcs int) *Differential {
	if numProcs <= 0 {
		panic(fmt.Sprintf("related: newDifferential with numProcs=%d", numProcs))
	}
	return &Differential{numProcs: numProcs, perProc: make([][]*DiffStamp, numProcs)}
}

// FromTrace runs the central Fidge/Mattern computation over the trace and
// stores every timestamp differentially.
func FromTrace(tr *model.Trace) (*Differential, error) {
	d := newDifferential(tr.NumProcs)
	stamped, err := fm.StampAll(tr)
	if err != nil {
		return nil, err
	}
	// Stamps arrive in delivery order; per process that is index order.
	prev := make([]vclock.Clock, tr.NumProcs)
	for _, st := range stamped {
		p := st.Event.ID.Process
		ds := &DiffStamp{ID: st.Event.ID}
		base := prev[p]
		for q := range st.Clock {
			var old int32
			if base != nil {
				old = base[q]
			}
			if st.Clock[q] != old {
				ds.Changed = append(ds.Changed, DiffEntry{Proc: int32(q), Value: st.Clock[q]})
			}
		}
		d.perProc[p] = append(d.perProc[p], ds)
		prev[p] = st.Clock
		d.events++
	}
	return d, nil
}

// Events returns the number of stored events.
func (d *Differential) Events() int { return d.events }

// StorageInts totals the diff storage.
func (d *Differential) StorageInts() int64 {
	var total int64
	for _, stamps := range d.perProc {
		for _, ds := range stamps {
			total += int64(ds.sizeInts())
		}
	}
	return total
}

// reconstruct rebuilds the full Fidge/Mattern vector of an event by
// accumulating its process's diffs up to its index — the O(chain) cost the
// encoding trades for space.
func (d *Differential) reconstruct(id model.EventID) (vclock.Clock, error) {
	p := int(id.Process)
	if p < 0 || p >= d.numProcs {
		return nil, fmt.Errorf("%w: %v", ErrUnknownEvent, id)
	}
	stamps := d.perProc[p]
	if id.Index < 1 || int(id.Index) > len(stamps) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownEvent, id)
	}
	clk := vclock.New(d.numProcs)
	for _, ds := range stamps[:id.Index] {
		for _, ch := range ds.Changed {
			clk[ch.Proc] = ch.Value
		}
	}
	return clk, nil
}

// Precedes answers happened-before by reconstructing both vectors.
func (d *Differential) Precedes(e, f model.EventID) (bool, error) {
	ce, err := d.reconstruct(e)
	if err != nil {
		return false, err
	}
	cf, err := d.reconstruct(f)
	if err != nil {
		return false, err
	}
	return fm.Precedes(e, ce, f, cf), nil
}

// CompressionFactor returns (full Fidge/Mattern ints) / (diff ints): the
// paper "was unable to realize more than a factor of three in space saving"
// with this class of technique.
func (d *Differential) CompressionFactor() float64 {
	diff := d.StorageInts()
	if diff == 0 {
		return 0
	}
	return float64(int64(d.events)*int64(d.numProcs)) / float64(diff)
}
