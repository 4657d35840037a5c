package model

import (
	"errors"
	"strings"
	"testing"
)

func TestEventIDString(t *testing.T) {
	id := EventID{Process: 3, Index: 17}
	if id.String() != "p3:17" {
		t.Fatalf("String = %q", id.String())
	}
	if !NoEvent.IsZero() {
		t.Fatalf("NoEvent must be zero")
	}
	if id.IsZero() {
		t.Fatalf("real id must not be zero")
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k    Kind
		recv bool
		str  string
	}{
		{Unary, false, "unary"},
		{Send, false, "send"},
		{Receive, true, "receive"},
		{Sync, true, "sync"},
	}
	for _, tc := range cases {
		if tc.k.IsReceive() != tc.recv {
			t.Errorf("%v.IsReceive() = %v", tc.k, tc.k.IsReceive())
		}
		if tc.k.String() != tc.str {
			t.Errorf("%v.String() = %q want %q", tc.k, tc.k.String(), tc.str)
		}
	}
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestEventString(t *testing.T) {
	e := Event{ID: EventID{0, 1}, Kind: Send, Partner: EventID{1, 1}}
	if got := e.String(); got != "send p0:1 -> p1:1" {
		t.Errorf("send string = %q", got)
	}
	e = Event{ID: EventID{1, 1}, Kind: Receive, Partner: EventID{0, 1}}
	if got := e.String(); got != "recv p1:1 <- p0:1" {
		t.Errorf("recv string = %q", got)
	}
	e = Event{ID: EventID{0, 2}, Kind: Sync, Partner: EventID{1, 2}}
	if got := e.String(); got != "sync p0:2 <> p1:2" {
		t.Errorf("sync string = %q", got)
	}
	e = Event{ID: EventID{2, 1}, Kind: Unary}
	if got := e.String(); got != "unary p2:1" {
		t.Errorf("unary string = %q", got)
	}
}

// buildValid constructs a small valid trace exercising all event kinds.
func buildValid(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder("test", 3)
	b.Unary(0)
	s := b.Send(0)
	b.Receive(1, s)
	b.Sync(1, 2)
	b.Message(2, 0)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	return tr
}

func TestBuilderProducesValidTrace(t *testing.T) {
	tr := buildValid(t)
	st := tr.Stats()
	if st.NumEvents != 7 || st.Unary != 1 || st.Sends != 2 || st.Receives != 2 || st.Syncs != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Messages != 2 || st.SyncPairs != 1 {
		t.Fatalf("derived stats wrong: %+v", st)
	}
}

func TestPerProcessCounts(t *testing.T) {
	tr := buildValid(t)
	counts := tr.PerProcessCounts()
	want := []int{3, 2, 2}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestEventMap(t *testing.T) {
	tr := buildValid(t)
	m := tr.eventMap()
	if len(m) != tr.NumEvents() {
		t.Fatalf("eventMap size %d != %d", len(m), tr.NumEvents())
	}
	for i, e := range tr.Events {
		if j, ok := m[e.ID]; !ok || j != i {
			t.Fatalf("eventMap[%v] = %d, %v, want %d", e.ID, j, ok, i)
		}
	}
	if _, ok := m[EventID{9, 9}]; ok {
		t.Fatalf("eventMap holds an absent event")
	}
}

func TestValidateRejectsProcOutOfRange(t *testing.T) {
	tr := &Trace{NumProcs: 1, Events: []Event{{ID: EventID{5, 1}, Kind: Unary}}}
	if err := tr.Validate(); !errors.Is(err, ErrProcOutOfRange) {
		t.Fatalf("err = %v, want ErrProcOutOfRange", err)
	}
}

func TestValidateRejectsBadIndex(t *testing.T) {
	tr := &Trace{NumProcs: 1, Events: []Event{{ID: EventID{0, 2}, Kind: Unary}}}
	if err := tr.Validate(); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v, want ErrBadIndex", err)
	}
}

func TestValidateRejectsDuplicate(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{0, 1}, Kind: Unary},
		{ID: EventID{0, 1}, Kind: Unary},
	}}
	err := tr.Validate()
	// The duplicate also breaks index contiguity; accept either class but
	// require rejection.
	if err == nil {
		t.Fatalf("duplicate event accepted")
	}
}

func TestValidateRejectsMissingPartner(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{{ID: EventID{0, 1}, Kind: Send}}}
	if err := tr.Validate(); !errors.Is(err, ErrMissingPartner) {
		t.Fatalf("err = %v, want ErrMissingPartner", err)
	}
}

func TestValidateRejectsUnaryWithPartner(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{0, 1}, Kind: Unary, Partner: EventID{1, 1}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrUnaryWithPartner) {
		t.Fatalf("err = %v, want ErrUnaryWithPartner", err)
	}
}

func TestValidateRejectsSelfPartner(t *testing.T) {
	tr := &Trace{NumProcs: 1, Events: []Event{
		{ID: EventID{0, 1}, Kind: Send, Partner: EventID{0, 2}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrSelfPartner) {
		t.Fatalf("err = %v, want ErrSelfPartner", err)
	}
}

func TestValidateRejectsReceiveBeforeSend(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{1, 1}, Kind: Receive, Partner: EventID{0, 1}},
		{ID: EventID{0, 1}, Kind: Send, Partner: EventID{1, 1}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrUnexpectedOrder) {
		t.Fatalf("err = %v, want ErrUnexpectedOrder", err)
	}
}

func TestValidateRejectsDanglingPartner(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{0, 1}, Kind: Send, Partner: EventID{1, 9}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrDanglingPartner) {
		t.Fatalf("err = %v, want ErrDanglingPartner", err)
	}
}

func TestValidateRejectsPartnerMismatch(t *testing.T) {
	tr := &Trace{NumProcs: 3, Events: []Event{
		{ID: EventID{0, 1}, Kind: Send, Partner: EventID{1, 1}},
		{ID: EventID{1, 1}, Kind: Receive, Partner: EventID{0, 1}},
		{ID: EventID{2, 1}, Kind: Send, Partner: EventID{1, 1}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrPartnerMismatch) {
		t.Fatalf("err = %v, want ErrPartnerMismatch", err)
	}
}

func TestValidateRejectsPartnerKind(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{0, 1}, Kind: Send, Partner: EventID{1, 1}},
		{ID: EventID{1, 1}, Kind: Sync, Partner: EventID{0, 1}},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrPartnerKind) {
		t.Fatalf("err = %v, want ErrPartnerKind", err)
	}
}

func TestValidateRejectsUnknownKind(t *testing.T) {
	tr := &Trace{NumProcs: 1, Events: []Event{{ID: EventID{0, 1}, Kind: Kind(42)}}}
	if err := tr.Validate(); err == nil {
		t.Fatalf("unknown kind accepted")
	}
}

// TestDeliverySentinelTexts pins the delivery sentinels' texts byte for
// byte. Clients match them in ERR replies, so the prefixes stay those of the
// packages that first defined them, whether or not those packages remain.
func TestDeliverySentinelTexts(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ErrDeliverProcOutOfRange, "poset: process id out of range"},
		{ErrDeliverBadIndex, "poset: event index does not extend process history"},
		{ErrDeliverUnknownSend, "poset: receive refers to unknown send"},
		{ErrDeliverDuplicate, "poset: duplicate event"},
		{ErrDeliverSyncInterleaved, "fm: event interleaved inside a synchronous pair"},
		{ErrDeliverSyncPartner, "fm: sync event does not match pending sync partner"},
		{ErrDeliverBadPartner, "monitor: bad partner reference"},
		{ErrDeliverSelfSync, "monitor: sync event partnered with itself"},
		{ErrDeliverSyncMismatch, "monitor: sync halves do not reference each other"},
		{ErrDeliverReceiveMismatch, "monitor: receive does not match its send's target"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("sentinel text %q, want %q", got, tc.want)
		}
	}
}

func TestSyncPairValidatesInEitherDeliveryOrder(t *testing.T) {
	tr := &Trace{NumProcs: 2, Events: []Event{
		{ID: EventID{1, 1}, Kind: Sync, Partner: EventID{0, 1}},
		{ID: EventID{0, 1}, Kind: Sync, Partner: EventID{1, 1}},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("sync pair rejected: %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("zero procs", func() { NewBuilder("x", 0) })
	expectPanic("proc out of range", func() { NewBuilder("x", 1).Unary(5) })
	expectPanic("receive unknown send", func() {
		NewBuilder("x", 2).Receive(1, EventID{0, 1})
	})
	expectPanic("receive on sender", func() {
		b := NewBuilder("x", 2)
		s := b.Send(0)
		b.Receive(0, s)
	})
	expectPanic("double receive", func() {
		b := NewBuilder("x", 3)
		s := b.Send(0)
		b.Receive(1, s)
		b.Receive(2, s)
	})
	expectPanic("receive of non-send", func() {
		b := NewBuilder("x", 2)
		u := b.Unary(0)
		b.Receive(1, u)
	})
	expectPanic("sync self", func() { NewBuilder("x", 2).Sync(1, 1) })
	expectPanic("dangling send", func() {
		b := NewBuilder("x", 2)
		b.Send(0)
		b.Trace()
	})
}

func TestPendingSends(t *testing.T) {
	b := NewBuilder("x", 2)
	s1 := b.Send(0)
	s2 := b.Send(0)
	b.Receive(1, s1)
	pend := b.PendingSends()
	if len(pend) != 1 || pend[0] != s2 {
		t.Fatalf("PendingSends = %v, want [%v]", pend, s2)
	}
	b.Receive(1, s2)
	if len(b.PendingSends()) != 0 {
		t.Fatalf("PendingSends nonempty after drain")
	}
}

func TestBuilderCounts(t *testing.T) {
	b := NewBuilder("x", 2)
	if b.NumProcs() != 2 || b.NumEvents() != 0 {
		t.Fatalf("fresh builder counts wrong")
	}
	b.Unary(0)
	b.Message(0, 1)
	if b.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", b.NumEvents())
	}
}
