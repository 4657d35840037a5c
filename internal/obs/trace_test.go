package obs

import (
	"fmt"
	"testing"
	"time"
)

func op(i int) Op {
	return Op{Kind: "ingest", Size: i, Duration: time.Duration(i) * time.Millisecond}
}

func TestTraceRingWrap(t *testing.T) {
	r := newTraceRing(4)
	for i := 1; i <= 10; i++ {
		r.record(op(i))
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d ops, want 4", len(snap))
	}
	for k, o := range snap {
		if o.Size != 7+k { // oldest-first: 7, 8, 9, 10
			t.Fatalf("snapshot[%d].Size = %d, want %d", k, o.Size, 7+k)
		}
	}
}

func TestTraceRingPartial(t *testing.T) {
	r := newTraceRing(8)
	r.record(op(1))
	r.record(op(2))
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Size != 1 || snap[1].Size != 2 {
		t.Fatalf("partial snapshot = %v", snap)
	}
}

func TestTraceRingSlowest(t *testing.T) {
	r := newTraceRing(16)
	for _, ms := range []int{5, 30, 1, 12, 30, 2} {
		r.record(op(ms))
	}
	slow := r.Slowest(3)
	if len(slow) != 3 {
		t.Fatalf("Slowest(3) returned %d ops", len(slow))
	}
	if slow[0].Duration != 30*time.Millisecond || slow[2].Duration != 12*time.Millisecond {
		t.Fatalf("Slowest order wrong: %v", slow)
	}
	if all := r.Slowest(100); len(all) != 6 {
		t.Fatalf("Slowest(100) returned %d ops, want all 6", len(all))
	}
}

func TestTraceRingMinCapacity(t *testing.T) {
	r := newTraceRing(0)
	r.record(op(1))
	r.record(op(2))
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Size != 2 {
		t.Fatalf("capacity-0 ring snapshot = %v, want just the newest op", snap)
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var r *TraceRing
	r.record(op(1))
	if r.Total() != 0 || r.Snapshot() != nil || len(r.Slowest(5)) != 0 {
		t.Fatal("nil ring is not inert")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := newTraceRing(32)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				r.record(Op{Kind: fmt.Sprintf("g%d", g), Size: i})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := r.Total(); got != 4000 {
		t.Fatalf("Total = %d, want 4000", got)
	}
	if got := len(r.Snapshot()); got != 32 {
		t.Fatalf("retained %d, want capacity 32", got)
	}
}
