package fm

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/vclock"
)

// figure2Trace reconstructs the computation of Figure 2 of the paper.
//
//	P1: A(send->D) B(send->G) C(recv<-E)
//	P2: D(recv<-A) E(send->C) F(recv<-H)
//	P3: G(recv<-B) H(send->F) I(unary)
func figure2Trace(t *testing.T) *model.Trace {
	t.Helper()
	b := model.NewBuilder("figure2", 3)
	a := b.Send(0)   // A
	b.Receive(1, a)  // D
	bb := b.Send(0)  // B
	b.Receive(2, bb) // G
	e := b.Send(1)   // E
	b.Receive(0, e)  // C
	h := b.Send(2)   // H
	b.Receive(1, h)  // F
	b.Unary(2)       // I
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("figure2 trace invalid: %v", err)
	}
	return tr
}

// TestFigure2 verifies the exact timestamps published in Figure 2.
func TestFigure2(t *testing.T) {
	tr := figure2Trace(t)
	stamped, err := StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.EventID]vclock.Clock{
		{Process: 0, Index: 1}: {1, 0, 0}, // A
		{Process: 0, Index: 2}: {2, 0, 0}, // B
		{Process: 0, Index: 3}: {3, 2, 0}, // C
		{Process: 1, Index: 1}: {1, 1, 0}, // D
		{Process: 1, Index: 2}: {1, 2, 0}, // E
		{Process: 1, Index: 3}: {2, 3, 2}, // F
		{Process: 2, Index: 1}: {2, 0, 1}, // G
		{Process: 2, Index: 2}: {2, 0, 2}, // H
		{Process: 2, Index: 3}: {2, 0, 3}, // I
	}
	if len(stamped) != len(want) {
		t.Fatalf("stamped %d events, want %d", len(stamped), len(want))
	}
	for _, st := range stamped {
		w, ok := want[st.Event.ID]
		if !ok {
			t.Fatalf("unexpected event %v", st.Event.ID)
		}
		if !st.Clock.Equal(w) {
			t.Errorf("FM(%v) = %v, want %v", st.Event.ID, st.Clock, w)
		}
	}
}

func TestFigure2Precedence(t *testing.T) {
	tr := figure2Trace(t)
	stamped, err := StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clk := map[model.EventID]vclock.Clock{}
	for _, st := range stamped {
		clk[st.Event.ID] = st.Clock
	}
	A := model.EventID{Process: 0, Index: 1}
	B := model.EventID{Process: 0, Index: 2}
	C := model.EventID{Process: 0, Index: 3}
	D := model.EventID{Process: 1, Index: 1}
	F := model.EventID{Process: 1, Index: 3}
	I := model.EventID{Process: 2, Index: 3}

	check := func(e, f model.EventID, want bool) {
		t.Helper()
		if got := Precedes(e, clk[e], f, clk[f]); got != want {
			t.Errorf("Precedes(%v,%v) = %v, want %v", e, f, got, want)
		}
	}
	check(A, D, true)  // message edge
	check(A, B, true)  // in-process
	check(A, C, true)  // transitive
	check(D, A, false) // reverse
	check(A, A, false) // irreflexive
	check(B, F, true)  // B->G->H->F
	check(C, F, false) // concurrent
	check(F, C, false)
	check(A, I, true)  // A->B->G->I
	check(B, I, true)  // B->G->I
	check(D, I, false) // D and I concurrent
	check(I, D, false)
	check(C, I, false) // C and I concurrent
	check(I, C, false)

	if !Concurrent(C, clk[C], F, clk[F]) {
		t.Errorf("C and F must be concurrent")
	}
	if Concurrent(A, clk[A], D, clk[D]) {
		t.Errorf("A and D must not be concurrent")
	}
}

func TestSyncPairIdenticalClocksAndConcurrent(t *testing.T) {
	b := model.NewBuilder("sync", 3)
	b.Unary(0)
	b.Unary(0)
	b.Unary(1)
	p, q := b.Sync(0, 1)
	b.Message(1, 2)
	tr := b.Trace()
	stamped, err := StampAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	clk := map[model.EventID]vclock.Clock{}
	for _, st := range stamped {
		clk[st.Event.ID] = st.Clock
	}
	if !clk[p].Equal(clk[q]) {
		t.Fatalf("sync halves differ: %v vs %v", clk[p], clk[q])
	}
	want := vclock.Clock{3, 2, 0}
	if !clk[p].Equal(want) {
		t.Fatalf("sync clock = %v, want %v", clk[p], want)
	}
	if Precedes(p, clk[p], q, clk[q]) || Precedes(q, clk[q], p, clk[p]) {
		t.Fatalf("sync halves must be mutually concurrent")
	}
	// Both halves precede the downstream receive on p2.
	r := model.EventID{Process: 2, Index: 1}
	if !Precedes(p, clk[p], r, clk[r]) || !Precedes(q, clk[q], r, clk[r]) {
		t.Fatalf("sync halves must precede downstream receive")
	}
	// Events before either half precede both halves.
	u := model.EventID{Process: 0, Index: 1}
	if !Precedes(u, clk[u], q, clk[q]) {
		t.Fatalf("predecessor of one half must precede the other half")
	}
}

func TestObserveErrors(t *testing.T) {
	t.Run("unknown send", func(t *testing.T) {
		ts := NewTimestamper(2)
		_, err := ts.Observe(model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}})
		if !errors.Is(err, ErrUnknownSend) {
			t.Fatalf("err = %v, want ErrUnknownSend", err)
		}
	})
	t.Run("proc out of range", func(t *testing.T) {
		ts := NewTimestamper(2)
		_, err := ts.Observe(model.Event{ID: model.EventID{Process: 5, Index: 1}, Kind: model.Unary})
		if !errors.Is(err, ErrProcOutOfRange) {
			t.Fatalf("err = %v, want ErrProcOutOfRange", err)
		}
	})
	t.Run("bad index", func(t *testing.T) {
		ts := NewTimestamper(2)
		_, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 2}, Kind: model.Unary})
		if !errors.Is(err, ErrBadIndex) {
			t.Fatalf("err = %v, want ErrBadIndex", err)
		}
	})
	t.Run("sync interleaved", func(t *testing.T) {
		ts := NewTimestamper(3)
		st, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 1, Index: 1}})
		if err != nil || len(st) != 0 {
			t.Fatalf("first sync half: st=%v err=%v", st, err)
		}
		_, err = ts.Observe(model.Event{ID: model.EventID{Process: 2, Index: 1}, Kind: model.Unary})
		if !errors.Is(err, ErrSyncInterleaved) {
			t.Fatalf("err = %v, want ErrSyncInterleaved", err)
		}
	})
	t.Run("sync partner mismatch", func(t *testing.T) {
		ts := NewTimestamper(3)
		if _, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 1, Index: 1}}); err != nil {
			t.Fatal(err)
		}
		_, err := ts.Observe(model.Event{ID: model.EventID{Process: 2, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 0, Index: 1}})
		if !errors.Is(err, ErrSyncPartner) {
			t.Fatalf("err = %v, want ErrSyncPartner", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		ts := NewTimestamper(1)
		_, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Kind(9)})
		if err == nil {
			t.Fatalf("unknown kind accepted")
		}
	})
}

func TestFlushErrors(t *testing.T) {
	ts := NewTimestamper(2)
	if _, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err == nil {
		t.Fatalf("Flush accepted unreceived send")
	}

	ts2 := NewTimestamper(2)
	if _, err := ts2.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 1, Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ts2.Flush(); err == nil {
		t.Fatalf("Flush accepted unpaired sync")
	}

	ts3 := NewTimestamper(1)
	if _, err := ts3.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}); err != nil {
		t.Fatal(err)
	}
	if err := ts3.Flush(); err != nil {
		t.Fatalf("clean Flush failed: %v", err)
	}
}

func TestPendingSendsBookkeeping(t *testing.T) {
	ts := NewTimestamper(2)
	send := model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}}
	if _, err := ts.Observe(send); err != nil {
		t.Fatal(err)
	}
	if ts.PendingSends() != 1 {
		t.Fatalf("PendingSends = %d, want 1", ts.PendingSends())
	}
	recv := model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: send.ID}
	if _, err := ts.Observe(recv); err != nil {
		t.Fatal(err)
	}
	if ts.PendingSends() != 0 {
		t.Fatalf("PendingSends = %d after receive, want 0", ts.PendingSends())
	}
	if ts.observed != 2 {
		t.Fatalf("observed = %d, want 2", ts.observed)
	}
	// Re-receiving the same send must fail: the clock was consumed.
	dup := model.Event{ID: model.EventID{Process: 1, Index: 2}, Kind: model.Receive, Partner: send.ID}
	if _, err := ts.Observe(dup); !errors.Is(err, ErrUnknownSend) {
		t.Fatalf("duplicate receive err = %v, want ErrUnknownSend", err)
	}
}

func TestNewTimestamperPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for n=0")
		}
	}()
	NewTimestamper(0)
}

func TestStampAllReportsPosition(t *testing.T) {
	tr := &model.Trace{NumProcs: 2, Events: []model.Event{
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}}
	if _, err := StampAll(tr); err == nil {
		t.Fatalf("StampAll accepted receive-before-send")
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	ts := NewTimestamper(3)
	events := []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}},
		{ID: model.EventID{Process: 2, Index: 1}, Kind: model.Unary},
	}
	for _, e := range events {
		if _, err := ts.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	snap := ts.Snapshot()
	if snap == nil {
		t.Fatal("snapshot unavailable")
	}
	if snap.Observed() != 2 {
		t.Fatalf("Observed = %d", snap.Observed())
	}
	// frontier p0 (3) + p2 (3) + one pending send (3) = 9 ints.
	if got := snap.StorageInts(); got != 9 {
		t.Fatalf("StorageInts = %d", got)
	}
	// Restored timestamper accepts the receive and produces the right
	// clock; the original remains usable independently.
	recv := model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}}
	restored := NewFromSnapshot(snap)
	st, err := restored.Observe(recv)
	if err != nil {
		t.Fatal(err)
	}
	want := vclock.Clock{1, 1, 0}
	if !st[0].Clock.Equal(want) {
		t.Fatalf("restored clock = %v, want %v", st[0].Clock, want)
	}
	st2, err := ts.Observe(recv)
	if err != nil {
		t.Fatal(err)
	}
	if !st2[0].Clock.Equal(want) {
		t.Fatalf("original clock = %v, want %v", st2[0].Clock, want)
	}
}

func TestSnapshotNilMidSync(t *testing.T) {
	ts := NewTimestamper(2)
	if _, err := ts.Observe(model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 1, Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if ts.Snapshot() != nil {
		t.Fatal("snapshot taken mid-sync")
	}
	if _, err := ts.Observe(model.Event{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Sync, Partner: model.EventID{Process: 0, Index: 1}}); err != nil {
		t.Fatal(err)
	}
	if ts.Snapshot() == nil {
		t.Fatal("snapshot unavailable after pair completed")
	}
}
