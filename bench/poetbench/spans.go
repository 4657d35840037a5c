package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// traceBatches bounds the trace file: spans of batches beyond this index are
// measured and counted but not written, or rpc-fanin's 15k frames per rung
// would make a 40 MB file.
const traceBatches = 512

// span is one timed call into a layer. Spans are kept in memory and written
// as Chrome trace-event JSON when the run ends.
type span struct {
	Layer  string
	Name   string
	Batch  int   // index of the arrival batch, -1 for a span that covers a rung
	Start  int64 // ns since the recorder started
	End    int64
	Parent int // index of the enclosing span, -1 for a root
}

// recorder collects spans. A nil *recorder records nothing, which is how the
// untraced server rung runs the same code without the cost.
type recorder struct {
	mu    sync.Mutex // the server rung records from the daemon's ingest goroutine too
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(layer, name string, batch, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Batch: batch, Start: int64(time.Since(r.t0)), Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the length of every span with this layer and name.
func (r *recorder) durations(layer, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes is each span's duration minus the part of it its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans of the first traceBatches batches of every
// rung; one track (tid) per layer.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	self := selfTimes(r.spans)
	tids := make(map[string]int)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i, s := range r.spans {
		if s.Batch >= traceBatches {
			continue
		}
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		b, err := json.Marshal(traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]any{"id": i, "parent": s.Parent, "batch": s.Batch, "self_ns": self[i]},
		})
		if err != nil {
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		w.Write(b)
	}
	for layer, tid := range tids {
		b, err := json.Marshal(map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": map[string]any{"name": layer}})
		if err != nil {
			return err
		}
		w.WriteString(",\n")
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
