package monitor

import (
	"bufio"
	"bytes"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func startServer(t *testing.T, numProcs int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	m, err := New(numProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr.String()
}

func TestServerEndToEndV1(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-36")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	srv, addr := startServer(t, tr.NumProcs, ServerConfig{})

	// One client connection per simulated process, streaming concurrently.
	streams := perProcessStreams(tr)
	var wg sync.WaitGroup
	errCh := make(chan error, tr.NumProcs)
	for _, stream := range streams {
		stream := stream
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for _, e := range stream {
				if err := c.Report(e); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Query client.
	qc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	stats, err := qc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "held=0") {
		t.Fatalf("events stranded: %s", stats)
	}
	// The zero ServerConfig accounts storage at the default fixed vector.
	if want := " storage=" + strconv.FormatInt(srv.Default().Monitor().Stats(300).StorageInts, 10) + " "; !strings.Contains(stats, want) {
		t.Fatalf("zero-config STATS %q does not carry%q", stats, want)
	}
	e := tr.Events[0].ID
	f := tr.Events[len(tr.Events)-1].ID
	if _, err := qc.Precedes(e, f); err != nil {
		t.Fatal(err)
	}
	conc, err := qc.Concurrent(e, e)
	if err != nil {
		t.Fatal(err)
	}
	if conc {
		t.Fatal("event concurrent with itself")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
}

func TestServerEndToEndV2(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-36")
	if !ok {
		t.Fatal("spec missing")
	}
	tr := spec.Generate()
	srv, addr := startServer(t, tr.NumProcs, ServerConfig{MaxBatch: 256})

	// Reference answers from an in-order local monitor.
	ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}

	// Stream per-process shards concurrently in small batches.
	streams := perProcessStreams(tr)
	var wg sync.WaitGroup
	errCh := make(chan error, tr.NumProcs)
	for _, stream := range streams {
		stream := stream
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialV2(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if c.NumProcs() != tr.NumProcs {
				errCh <- errStr("HELLO numProcs mismatch")
				return
			}
			for lo := 0; lo < len(stream); lo += 7 {
				hi := lo + 7
				if hi > len(stream) {
					hi = len(stream)
				}
				if err := c.ReportBatch(stream[lo:hi]); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	qc, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	stats, err := qc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"held=0", "ingested=", "batches="} {
		if !strings.Contains(stats, want) {
			t.Fatalf("stats %q missing %q", stats, want)
		}
	}

	// Batched queries agree with the reference monitor.
	qs := make([]Query, 0, 2*len(tr.Events))
	for i := 0; i+1 < len(tr.Events); i += 2 {
		qs = append(qs, Query{Op: OpPrecedes, A: tr.Events[i].ID, B: tr.Events[i+1].ID})
		qs = append(qs, Query{Op: OpConcurrent, A: tr.Events[i].ID, B: tr.Events[i+1].ID})
	}
	res, err := qc.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(res), len(qs))
	}
	for i, q := range qs {
		if res[i].Err != nil {
			t.Fatalf("query %d (%+v): %v", i, q, res[i].Err)
		}
		want := QueryResult{}
		want.True, want.Err = answerLocal(ref, q)
		if want.Err != nil || res[i].True != want.True {
			t.Fatalf("query %d (%+v): got %v want %v (%v)", i, q, res[i].True, want.True, want.Err)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// answerLocal answers one Query against a local monitor.
func answerLocal(m *Monitor, q Query) (bool, error) {
	if q.Op == OpPrecedes {
		return m.Precedes(q.A, q.B)
	}
	return m.Concurrent(q.A, q.B)
}

type errStr string

func (e errStr) Error() string { return string(e) }

func TestServerProtocolErrorsV1(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &Client{conn: conn, r: bufio.NewReader(conn)}

	cases := []struct {
		send string
		want string
	}{
		{"NONSENSE", "ERR unknown command"},
		{"EVENT", "ERR event syntax"},
		{"EVENT z 0:1", "ERR unknown event kind \"z\""},
		{"EVENT u zero:1", "ERR bad event id \"zero:1\""},
		// A number that does not fit the model's int32 is refused, not
		// wrapped: 4294967296:1 must not be acknowledged (and journaled) as 0:1.
		{"EVENT u 4294967296:1", "ERR bad event id \"4294967296:1\""},
		{"EVENT u 0:4294967297", "ERR bad event id \"0:4294967297\""},
		{"EVENT u 0:2147483648", "ERR bad event id \"0:2147483648\""},
		{"PRECEDES 0:1 4294967297:1", "ERR bad event id \"4294967297:1\""},
		// The arrow is part of the record, and must be the kind's own.
		{"EVENT s 0:1 banana 1:1", "ERR expected \"->\""},
		{"EVENT r 1:1 -> 0:1", "ERR expected \"<-\""},
		{"EVENT u 0:1 -> 1:1", "ERR unary takes no partner"},
		{"EVENT s 0:1", "ERR missing partner"},
		{"EVENT s 0:1 -> bad", "ERR bad event id \"bad\""},
		{"PRECEDES 0:1", "ERR query syntax"},
		{"PRECEDES x 0:1", "ERR bad event id"},
		{"PRECEDES 0:1 1:1", "ERR"}, // unknown events
		{"EVENT u 0:1", "OK"},
		{"EVENT u 9:1", "ERR"}, // process out of range
		{"QUIT", "BYE"},
	}
	oks := 0
	for _, tc := range cases {
		resp, err := c.roundTrip(tc.send)
		if err != nil {
			t.Fatalf("%q: %v", tc.send, err)
		}
		if !strings.HasPrefix(resp, tc.want) {
			t.Fatalf("%q -> %q, want prefix %q", tc.send, resp, tc.want)
		}
		if resp == "OK" {
			oks++
		}
	}
	// The store holds exactly what was acknowledged: no refused line left an
	// event behind under some other name.
	probe, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	stats, err := probe.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statsInt(t, stats, "events"); got != oks {
		t.Fatalf("STATS events=%d after %d OK replies: %s", got, oks, stats)
	}
}

// TestServerV1EventsRideTheSubmitQueue pins that a v1 EVENT is a one-record
// batch through the same queue and counters as an EVENTS frame.
func TestServerV1EventsRideTheSubmitQueue(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{})
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, line := range []string{"EVENT u 0:1", "EVENT s 0:2 -> 1:1", "EVENT r 1:1 <- 0:2"} {
		if resp, err := c.roundTrip(line); err != nil || resp != "OK" {
			t.Fatalf("%q -> %q, %v", line, resp, err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, " ingested=3 batches=3 ") {
		t.Fatalf("three v1 EVENTs, STATS %q, want ingested=3 batches=3", stats)
	}
}

func TestServerV2RejectsBadFramesAndSurvives(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{MaxBatch: 4})
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(protocolV2Magic[:]); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	typ, _, err := readFrame(r)
	if err != nil || typ != frameHello {
		t.Fatalf("handshake: frame 0x%02x, err %v", typ, err)
	}

	// Unknown frame type, truncated EVENTS, oversized batch: each must get
	// an ERR frame and leave the connection serving.
	bad := []struct {
		typ     byte
		payload []byte
	}{
		{0x7f, nil},
		{frameEvents, []byte{0, 0}},
		{frameEvents, encodeEventsPayload(make([]model.Event, 9))}, // > MaxBatch=4
		{frameQuery, []byte{0, 0, 0, 1, 99}},                       // bad op / size
	}
	for _, tc := range bad {
		if err := writeFrame(conn, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		typ, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("after bad frame 0x%02x: %v", tc.typ, err)
		}
		if typ != frameErr {
			t.Fatalf("bad frame 0x%02x answered with 0x%02x, want ERR", tc.typ, typ)
		}
	}

	// The connection still ingests and answers.
	if err := writeFrame(conn, frameEvents, encodeEventsPayload([]model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
	})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(r)
	if err != nil || typ != frameAck {
		t.Fatalf("ack: frame 0x%02x, err %v", typ, err)
	}
	if n, err := decodeAckPayload(payload); err != nil || n != 1 {
		t.Fatalf("ack payload: %d, %v", n, err)
	}
	if srv.counters.ProtocolErrors.Value() < int64(len(bad)) {
		t.Fatalf("protocol errors not counted: %d", srv.counters.ProtocolErrors.Value())
	}
}

// TestReadFrameIntoReusesBuffer pins the frame-buffer contract serveV2 relies
// on: a payload that fits the buffer is read into it, a larger one gets a
// slice of its own and leaves the buffer alone, an empty one is nil, and the
// framing cap is enforced before anything is read or allocated.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var raw bytes.Buffer
	big, small := bytes.Repeat([]byte{0xAB}, 48), []byte{1, 2, 3}
	for _, p := range [][]byte{small, big, small, nil} {
		if err := writeFrame(&raw, frameEvents, p); err != nil {
			t.Fatal(err)
		}
	}
	wire := bufio.NewReader(&raw)
	buf := make([]byte, 0, 16)
	typ, p, err := readFrameInto(wire, buf)
	if err != nil || typ != frameEvents || !bytes.Equal(p, small) || &p[0] != &buf[:1][0] {
		t.Fatalf("fitting frame: typ 0x%02x payload %v err %v, want it read into the buffer", typ, p, err)
	}
	_, p, err = readFrameInto(wire, buf)
	if err != nil || !bytes.Equal(p, big) || cap(p) < len(big) || !bytes.Equal(buf[:3], small) {
		t.Fatalf("outsized frame: payload %v err %v, buffer %v", p, err, buf[:3])
	}
	buf = p // the connection adopts the larger buffer; the next, shorter frame must not see its tail
	_, p, err = readFrameInto(wire, buf)
	if err != nil || !bytes.Equal(p, small) || &p[0] != &buf[0] {
		t.Fatalf("shrinking frame: payload %v err %v", p, err)
	}
	if _, p, err = readFrameInto(wire, buf); err != nil || p != nil {
		t.Fatalf("empty frame: payload %v err %v", p, err)
	}
	raw.Write([]byte{frameEvents, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err = readFrameInto(wire, buf); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("frame over the framing cap: err %v", err)
	}
}

// TestServerV2FrameBufferAcrossFrameSizes drives one connection through
// frames of shrinking and growing sizes and different kinds, so every one
// after the first is decoded out of a reused buffer holding an older frame's
// bytes: every batch is acknowledged in full and the answers are right.
func TestServerV2FrameBufferAcrossFrameSizes(t *testing.T) {
	tr := workload.Ring(8, 40, false)
	srv, addr := startServer(t, tr.NumProcs, ServerConfig{})
	defer srv.Close()
	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{200, 3, 57, 1, 400}
	lo := 0
	for i := 0; lo < len(tr.Events); i++ {
		hi := min(lo+sizes[i%len(sizes)], len(tr.Events))
		if err := c.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatalf("ReportBatch[%d:%d]: %v", lo, hi, err)
		}
		if err := ref.DeliverBatch(tr.Events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		// A QUERY frame between EVENTS frames reuses the same buffer.
		first, last := tr.Events[0].ID, tr.Events[hi-1].ID
		want, _ := ref.Precedes(first, last)
		if got, err := c.Precedes(first, last); err != nil || got != want {
			t.Fatalf("Precedes(%v,%v) after %d events = %v, %v; reference %v", first, last, hi, got, err, want)
		}
		lo = hi
	}
	if got := srv.counters.EventsIngested.Value(); got != int64(len(tr.Events)) {
		t.Fatalf("ingested %d of %d events", got, len(tr.Events))
	}
	if srv.counters.ProtocolErrors.Value() != 0 {
		t.Fatalf("%d protocol errors on well-formed frames", srv.counters.ProtocolErrors.Value())
	}
}

func TestServerMaxConns(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{MaxConns: 2})
	defer srv.Close()

	c1, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The third connection is refused with a text error on either protocol.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR server full") {
		t.Fatalf("over-limit conn got %q, %v", line, err)
	}
	if srv.counters.ConnsRejected.Value() != 1 {
		t.Fatalf("rejected counter = %d", srv.counters.ConnsRejected.Value())
	}

	// Dropping a connection frees a slot.
	c2.Close()
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) < 2
	})
	c3, err := DialV2(addr)
	if err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	c3.Close()
}

func TestServerIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{IdleTimeout: 50 * time.Millisecond})
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the idle connection to be closed")
	}
}

func TestServerShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{})

	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReportBatch([]model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()
	// The client quits during the grace period; Shutdown must return nil
	// (no stranded events) without waiting for the full grace.
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// New connections are refused after shutdown.
	if _, err := DialV2(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
