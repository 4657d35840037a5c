package model_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/vclock"
)

// randomTrace builds a random valid trace over n processes: unary events,
// synchronous pairs, and messages that stay in flight for a while, so that
// receives interleave with later sends.
func randomTrace(r *rand.Rand, n, events int) *model.Trace {
	b := model.NewBuilder("rand", n)
	var inFlight []model.EventID
	other := func(p int) model.ProcessID { return model.ProcessID((p + 1 + r.Intn(n-1)) % n) }
	for b.NumEvents() < events {
		p := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			b.Unary(model.ProcessID(p))
		case 1:
			b.Sync(model.ProcessID(p), other(p))
		case 2:
			inFlight = append(inFlight, b.Send(model.ProcessID(p)))
		default:
			if len(inFlight) == 0 {
				continue
			}
			k := r.Intn(len(inFlight))
			s := inFlight[k]
			inFlight = append(inFlight[:k], inFlight[k+1:]...)
			b.Receive(other(int(s.Process)), s)
		}
	}
	for _, s := range inFlight {
		b.Receive(other(int(s.Process)), s)
	}
	return b.Trace()
}

func newReachability(t *testing.T, tr *model.Trace) *model.Reachability {
	t.Helper()
	o, err := model.NewReachability(tr)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestReachability(t *testing.T) {
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	t.Run("chain", func(t *testing.T) {
		// p0:1 -> p0:2 (send) -> p1:1 (receive) -> p1:2 -> p1:3 (send) -> p2:1 (receive) -> p2:2
		b := model.NewBuilder("chain", 3)
		b.Unary(0)
		b.Receive(1, b.Send(0))
		b.Unary(1)
		b.Receive(2, b.Send(1))
		b.Unary(2)
		o := newReachability(t, b.Trace())
		if !o.HappenedBefore(id(0, 1), id(2, 2)) || !o.HappenedBefore(id(0, 1), id(1, 2)) {
			t.Errorf("the head of the chain must precede its tail")
		}
		if o.HappenedBefore(id(2, 2), id(0, 1)) {
			t.Errorf("reverse precedence")
		}
		if o.HappenedBefore(id(0, 1), id(0, 1)) || o.Concurrent(id(0, 1), id(0, 1)) {
			t.Errorf("an event is neither before nor concurrent with itself")
		}
		for _, unknown := range []model.EventID{id(0, 99), id(3, 1), model.NoEvent} {
			if o.HappenedBefore(unknown, id(1, 1)) || o.HappenedBefore(id(1, 1), unknown) {
				t.Errorf("unknown event %v ordered", unknown)
			}
		}
	})
	t.Run("sync-contraction", func(t *testing.T) {
		b := model.NewBuilder("sync", 3)
		u := b.Unary(0)
		p, q := b.Sync(0, 1)
		r := b.Receive(2, b.Send(1))
		o := newReachability(t, b.Trace())
		if o.HappenedBefore(p, q) || o.HappenedBefore(q, p) || !o.Concurrent(p, q) {
			t.Errorf("sync halves must be concurrent")
		}
		if !o.HappenedBefore(u, q) {
			t.Errorf("a predecessor of one half must precede the pair")
		}
		if !o.HappenedBefore(p, r) || !o.HappenedBefore(q, r) {
			t.Errorf("the pair must precede the downstream receive")
		}
	})
	t.Run("invalid", func(t *testing.T) {
		tr := &model.Trace{NumProcs: 1, Events: []model.Event{{ID: id(0, 2), Kind: model.Unary}}}
		if _, err := model.NewReachability(tr); !errors.Is(err, model.ErrBadIndex) {
			t.Fatalf("err = %v, want ErrBadIndex", err)
		}
	})
	t.Run("random-transitivity", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			tr := randomTrace(r, 2+r.Intn(5), 60)
			o := newReachability(t, tr)
			pick := func() model.EventID { return tr.Events[r.Intn(len(tr.Events))].ID }
			for k := 0; k < 200; k++ {
				a, b, c := pick(), pick(), pick()
				if o.HappenedBefore(a, b) && o.HappenedBefore(b, c) && !o.HappenedBefore(a, c) {
					t.Fatalf("transitivity violated: %v -> %v -> %v", a, b, c)
				}
				if o.HappenedBefore(a, b) && o.HappenedBefore(b, a) {
					t.Fatalf("antisymmetry violated: %v <-> %v", a, b)
				}
				if o.HappenedBefore(a, a) {
					t.Fatalf("irreflexivity violated: %v", a)
				}
			}
		}
	})
}

// TestReachabilityMatchesFM is DESIGN §6's "FM precedence ≡ reachability":
// graph search and the Fidge/Mattern vector-clock test agree on every
// ordered pair of 200 random traces with synchronous pairs.
func TestReachabilityMatchesFM(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pairs := 0
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(r, 2+r.Intn(6), 10+r.Intn(110))
		o := newReachability(t, tr)
		stamped, err := fm.StampAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		clock := make(map[model.EventID]vclock.Clock, len(stamped))
		for _, st := range stamped {
			clock[st.Event.ID] = st.Clock
		}
		for _, x := range tr.Events {
			for _, y := range tr.Events {
				e, f := x.ID, y.ID
				pairs++
				if got, want := o.HappenedBefore(e, f), fm.Precedes(e, clock[e], f, clock[f]); got != want {
					t.Fatalf("trial %d: HappenedBefore(%v, %v) = %v, Fidge/Mattern %v", trial, e, f, got, want)
				}
				if got, want := o.Concurrent(e, f), e != f && fm.Concurrent(e, clock[e], f, clock[f]); got != want {
					t.Fatalf("trial %d: Concurrent(%v, %v) = %v, Fidge/Mattern %v", trial, e, f, got, want)
				}
			}
		}
	}
	t.Logf("%d pairs", pairs)
}
