// Package vclock provides the vector-clock primitives underlying both the
// Fidge/Mattern timestamp and the hierarchical cluster timestamp.
//
// A vector clock is a dense []int32 indexed by process identifier. The
// package deliberately exposes plain slices rather than an opaque type so
// that hot loops in the timestampers can operate on them without bounds or
// interface overhead; the functions here encapsulate the standard lattice
// operations (element-wise max, comparison, projection) and their invariants.
package vclock

import (
	"fmt"
	"strings"
)

// Clock is a dense vector clock. Index i holds the number of events of
// process i known to have happened at or before the clock's event.
type Clock []int32

// New returns a zeroed clock over n processes.
func New(n int) Clock { return make(Clock, n) }

// Clone returns a copy of c.
func (c Clock) Clone() Clock {
	d := make(Clock, len(c))
	copy(d, c)
	return d
}

// CopyFrom overwrites c with src. The two clocks must have equal length.
func (c Clock) CopyFrom(src Clock) {
	if len(c) != len(src) {
		panic(fmt.Sprintf("vclock: CopyFrom length mismatch %d != %d", len(c), len(src)))
	}
	copy(c, src)
}

// MaxInto sets c to the element-wise maximum of c and other.
// The two clocks must have equal length.
func (c Clock) MaxInto(other Clock) {
	if len(c) != len(other) {
		panic(fmt.Sprintf("vclock: MaxInto length mismatch %d != %d", len(c), len(other)))
	}
	for i, v := range other {
		if v > c[i] {
			c[i] = v
		}
	}
}

// Max returns a fresh clock holding the element-wise maximum of a and b.
func Max(a, b Clock) Clock {
	c := a.Clone()
	c.MaxInto(b)
	return c
}

// Ordering is the result of comparing two clocks under the pointwise partial
// order.
type Ordering int8

const (
	// Concurrent means neither clock dominates the other.
	Concurrent Ordering = iota
	// Before means the receiver is pointwise <= the argument and not equal.
	Before
	// After means the receiver is pointwise >= the argument and not equal.
	After
	// Equal means the clocks are identical.
	Equal
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Concurrent:
		return "concurrent"
	case Before:
		return "before"
	case After:
		return "after"
	case Equal:
		return "equal"
	}
	return fmt.Sprintf("Ordering(%d)", int8(o))
}

// compare reports the pointwise ordering between c and other.
func (c Clock) compare(other Clock) Ordering {
	if len(c) != len(other) {
		panic(fmt.Sprintf("vclock: compare length mismatch %d != %d", len(c), len(other)))
	}
	le, ge := true, true
	for i, v := range c {
		if v < other[i] {
			ge = false
		} else if v > other[i] {
			le = false
		}
		if !le && !ge {
			return Concurrent
		}
	}
	switch {
	case le && ge:
		return Equal
	case le:
		return Before
	default:
		return After
	}
}

// lessEq reports whether c is pointwise <= other.
func (c Clock) lessEq(other Clock) bool {
	if len(c) != len(other) {
		panic(fmt.Sprintf("vclock: lessEq length mismatch %d != %d", len(c), len(other)))
	}
	for i, v := range c {
		if v > other[i] {
			return false
		}
	}
	return true
}

// Equal reports whether c and other hold identical values.
func (c Clock) Equal(other Clock) bool {
	if len(c) != len(other) {
		return false
	}
	for i, v := range c {
		if v != other[i] {
			return false
		}
	}
	return true
}

// Project extracts the components of c named by procs, in order. The result
// is a projection timestamp as used by the cluster-timestamp algorithm: entry
// k of the result is c[procs[k]].
func (c Clock) Project(procs []int32) []int32 {
	out := make([]int32, len(procs))
	for k, p := range procs {
		out[k] = c[p]
	}
	return out
}

// ProjectInto writes the projection of c over procs into dst, which must
// have length >= len(procs). It returns dst[:len(procs)].
func (c Clock) ProjectInto(dst []int32, procs []int32) []int32 {
	dst = dst[:len(procs)]
	for k, p := range procs {
		dst[k] = c[p]
	}
	return dst
}

// IsZero reports whether every component of c is zero.
func (c Clock) IsZero() bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// String renders the clock as "(a,b,c)" in process order, matching the
// notation of Figure 2 of the paper.
func (c Clock) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	sb.WriteByte(')')
	return sb.String()
}
