package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	c := New(4)
	if len(c) != 4 {
		t.Fatalf("len = %d, want 4", len(c))
	}
	if !c.IsZero() {
		t.Fatalf("New clock not zero: %v", c)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Clock{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatalf("Clone aliases underlying array")
	}
	if !a.Equal(Clock{1, 2, 3}) {
		t.Fatalf("original mutated: %v", a)
	}
}

func TestCopyFrom(t *testing.T) {
	a := Clock{1, 2, 3}
	b := New(3)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatalf("CopyFrom: got %v want %v", b, a)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on length mismatch")
		}
	}()
	New(2).CopyFrom(New(3))
}

func TestMaxInto(t *testing.T) {
	a := Clock{1, 5, 0, 7}
	b := Clock{3, 2, 0, 9}
	a.MaxInto(b)
	want := Clock{3, 5, 0, 9}
	if !a.Equal(want) {
		t.Fatalf("MaxInto: got %v want %v", a, want)
	}
}

func TestMaxFresh(t *testing.T) {
	a := Clock{1, 5}
	b := Clock{3, 2}
	c := Max(a, b)
	if !c.Equal(Clock{3, 5}) {
		t.Fatalf("Max: got %v", c)
	}
	if !a.Equal(Clock{1, 5}) || !b.Equal(Clock{3, 2}) {
		t.Fatalf("Max mutated inputs: %v %v", a, b)
	}
}

func TestProject(t *testing.T) {
	c := Clock{10, 20, 30, 40}
	got := c.Project([]int32{3, 1})
	if len(got) != 2 || got[0] != 40 || got[1] != 20 {
		t.Fatalf("Project: got %v", got)
	}
}

func TestProjectInto(t *testing.T) {
	c := Clock{10, 20, 30}
	buf := make([]int32, 8)
	got := c.ProjectInto(buf, []int32{2, 0})
	if len(got) != 2 || got[0] != 30 || got[1] != 10 {
		t.Fatalf("ProjectInto: got %v", got)
	}
}

func TestString(t *testing.T) {
	if s := (Clock{1, 0, 3}).String(); s != "(1,0,3)" {
		t.Fatalf("String = %q", s)
	}
}

// randClock generates a clock of length n with small entries so comparisons
// hit all branches.
func randClock(r *rand.Rand, n int) Clock {
	c := New(n)
	for i := range c {
		c[i] = int32(r.Intn(4))
	}
	return c
}

func TestQuickMaxIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a, b := randClock(r, n), randClock(r, n)
		m := Max(a, b)
		for i := range m {
			if !(m[i] >= a[i] && m[i] >= b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxIsLeastUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a, b := randClock(r, n), randClock(r, n)
		m := Max(a, b)
		for i := range m {
			if m[i] != a[i] && m[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxIdempotentCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a, b := randClock(r, n), randClock(r, n)
		if !Max(a, a).Equal(a) {
			return false
		}
		return Max(a, b).Equal(Max(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
