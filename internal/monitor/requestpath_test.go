package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/hct"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// cutHistory is a history provider that answers every cutoff from one view.
type cutHistory struct{ q *Queries }

func (h cutHistory) HistoryAt(uint64) (*Queries, error) { return h.q, nil }

// TestRequestPathAllocatesNothing pins the v2 request path's steady state
// (DESIGN.md §7). After a warm-up, a QUERY frame, a QUERY@ frame and an EVENTS
// frame each go from their bytes to their reply written without an
// allocation: readFrameInto, serveFrame (decodeFrame, execute, replyFrame),
// the server's own ingest goroutine submitting the batch and handing it back,
// and the writer's resolve, writeFrame and hand-back. The server is
// instrumented as poetd runs it, at one lane and at two, with the span sampler off: a sampled batch's
// trace is an allocation by design, at most DefaultTraceRate a second. The
// EVENTS frames carry events never seen before, so the store grows under them:
// its cell pages, their directories and arena chunks come about one per 80
// events here (0.2 per 16-event frame). They are the store, not garbage, and
// AllocsPerRun's whole-number mean does not count them.
func TestRequestPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { requestPathAllocs(t, lanes) })
	}
}

func requestPathAllocs(t *testing.T, lanes int) {
	const batch, warm, runs = 16, 10, 100
	tr := workload.Ring(8, 120, false)
	loaded := len(tr.Events) - (warm+runs+1)*batch // what the queries ask about; the rest arrives in frames
	if loaded < 2*batch {
		t.Fatalf("ring of %d events too short for %d frames", len(tr.Events), warm+runs+1)
	}
	m, err := NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}, hct.PipelineOptions{Shards: lanes})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverBatchAsync(tr.Events[:loaded]); err != nil {
		t.Fatal(err)
	}
	m.IngestBarrier()
	tel := obs.NewTelemetry(obs.NewRegistry())
	tel.Traces = nil // sampler off
	srv := serveDefault(t, TenantResources{Monitor: m, History: cutHistory{NewQueries(m.Pipeline().At(m.Pipeline().CaptureWatermark(nil)))}}, ServerConfig{Obs: tel})
	defer srv.Close()

	qs := make([]Query, batch)
	for i := range qs {
		qs[i] = Query{Op: OpPrecedes + QueryOp(i%2), A: tr.Events[i].ID, B: tr.Events[loaded-1-i].ID}
	}
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, typ, payload)
		return b.Bytes()
	}
	queryFrame := frame(frameQuery, encodeQueryPayload(qs))
	queryAtFrame := frame(frameQueryAt, encodeQueryAtPayload(CutoffLatest, qs))
	var eventFrames [][]byte
	for lo := loaded; lo < len(tr.Events); lo += batch {
		eventFrames = append(eventFrames, frame(frameEvents, encodeEventsPayload(tr.Events[lo:min(lo+batch, len(tr.Events))])))
	}

	// One connection's worth of state, as serve and connWriter hold it.
	var fc frameConn
	cur := srv.Default()
	src := bytes.NewReader(nil)
	r := bufio.NewReader(src)
	w := bufio.NewWriter(io.Discard)
	serve := func(wire []byte, want byte) {
		src.Reset(wire)
		r.Reset(src)
		typ, payload, err := readFrameInto(r, fc.fbuf)
		if err != nil {
			t.Fatal(err)
		}
		fc.fbuf = adopt(fc.fbuf, payload, frameBufKeep)
		var item outItem
		item, cur, _ = srv.serveFrame(&fc, cur, typ, payload)
		item = resolve(item)
		if item.typ != want {
			t.Fatalf("frame 0x%02x answered 0x%02x %q, want 0x%02x", typ, item.typ, *item.payload, want)
		}
		if err := writeFrame(w, item.typ, *item.payload); err != nil {
			t.Fatal(err)
		}
		replyBufs.put(item.payload)
	}

	for _, tc := range []struct {
		name  string
		next  func() []byte
		reply byte
	}{
		{"QUERY", func() []byte { return queryFrame }, frameResults},
		{"QUERY@", func() []byte { return queryAtFrame }, frameResults},
		{"EVENTS", func() []byte { f := eventFrames[0]; eventFrames = eventFrames[1:]; return f }, frameAck},
	} {
		for range warm { // the connection's buffers, the pools and the collector's tables fill
			serve(tc.next(), tc.reply)
		}
		if got := testing.AllocsPerRun(runs, func() { serve(tc.next(), tc.reply) }); got != 0 {
			t.Errorf("%s frame: %.0f allocations, want 0", tc.name, got)
		}
	}
	m.IngestBarrier()
	if got, want := m.Stats(300).Events, len(tr.Events); got != want {
		t.Errorf("store holds %d events after the EVENTS frames, want %d", got, want)
	}
}
