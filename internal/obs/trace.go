package obs

import (
	"sort"
	"sync"
	"time"
)

// Op is one traced operation: an ingested batch, a query batch, a WAL
// fsync — whatever the instrumented layer chose to record. Err is the error
// text ("" on success) so traces stay plain data. Tenant names the namespace
// the op ran in (empty for ops outside any tenant scope) and Trace, when
// non-zero, links to the span trace sampled for this op in the TraceStore.
type Op struct {
	Kind     string        `json:"kind"`
	Tenant   string        `json:"tenant,omitempty"`
	Size     int           `json:"size"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
	Trace    TraceID       `json:"trace_id,omitempty"`
}

// TraceRing is a bounded ring buffer of recent operations, the daemon's
// answer to "what were the slowest 50 batches?". Recording overwrites the
// oldest entry; readers copy out under the same small mutex. One record per
// batch (not per event) keeps the lock invisible next to the batch work it
// measures.
type TraceRing struct {
	mu    sync.Mutex
	buf   []Op
	next  int    // slot for the next record
	total uint64 // ops ever recorded
}

// newTraceRing returns a ring holding the last capacity operations
// (minimum 1).
func newTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]Op, 0, capacity)}
}

// record appends one operation, evicting the oldest when full. Safe on a
// nil receiver.
func (r *TraceRing) record(op Op) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, op)
	} else {
		r.buf[r.next] = op
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns the number of operations ever recorded (not just retained).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained operations oldest-first.
func (r *TraceRing) Snapshot() []Op {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	// When the ring is not yet full, next == len(buf) and this is everything.
	out = append(out, r.buf[:r.next]...)
	return out
}

// Slowest returns the n slowest retained operations, slowest first.
func (r *TraceRing) Slowest(n int) []Op {
	ops := r.Snapshot()
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Duration > ops[j].Duration })
	if n >= 0 && n < len(ops) {
		ops = ops[:n]
	}
	return ops
}
