package monitor

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/tcp"
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
	// A ServerConfig without FixedVector accounts storage at the default one.
	if want := " storage=" + strconv.FormatInt(srv.Default().Monitor().Stats(300).StorageInts, 10) + " "; !strings.Contains(stats, want) {
		t.Fatalf("STATS %q without a FixedVector does not carry%q", stats, want)
	}
	e := tr.Events[0].ID
	if conc, err := qc.Concurrent(e, e); err != nil || conc {
		t.Fatalf("Concurrent(%v, %v) = %v, %v: an event concurrent with itself", e, e, conc, err)
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
	if err := srv.Close(); err != ErrClosed {
		t.Fatalf("double Close: %v", err)
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

	// The third connection is refused with an ERR frame in place of HELLO.
	if c, err := DialV2(addr); err == nil || err.Error() != "monitor: server: server full" {
		if c != nil {
			c.Close()
		}
		t.Fatalf("over-limit DialV2: %v, want monitor: server: server full", err)
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

// TestServerIdleTimeout: a client that connects and sends nothing is dropped
// when IdleTimeout runs out, not before, and leaves the connection table.
func TestServerIdleTimeout(t *testing.T) {
	const idle = 50 * time.Millisecond
	srv, addr := startServer(t, 2, ServerConfig{IdleTimeout: idle})
	defer srv.Close()

	start := time.Now()
	conn, err := tcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("idle connection read %d, %v; want EOF", n, err)
	}
	if d := time.Since(start); d < idle {
		t.Fatalf("dropped after %v, before the %v idle timeout", d, idle)
	}
	waitFor(t, func() bool { return serverConns(srv) == 0 })
}

// serverConns is the number of connections srv is serving.
func serverConns(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.conns)
}

// TestServerCutsOffSlowReader: a v2 client that pipelines requests and never
// reads a reply is cut off once a reply write has waited WriteTimeout. Its
// output queue drains, the connection leaves the table, and Close returns
// at once.
func TestServerCutsOffSlowReader(t *testing.T) {
	srv, addr := startServer(t, 2, ServerConfig{WriteTimeout: 200 * time.Millisecond})
	defer srv.Close()
	conn, err := tcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(protocolV2Magic[:]); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(bufio.NewReader(conn)); err != nil || typ != frameHello {
		t.Fatalf("handshake: frame 0x%02x, err %v", typ, err)
	}
	// STATS frames are 5 bytes and their replies hundreds: the replies fill
	// both socket buffers long before the requests do. Write until the
	// server hangs up.
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	w := bufio.NewWriter(conn)
	frames := 0
	for ; ; frames++ {
		if err = writeFrame(w, frameStats, nil); err != nil {
			break
		}
	}
	t.Logf("cut off after %d STATS frames: %v", frames, err)
	waitFor(t, func() bool { return serverConns(srv) == 0 })
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v after cutting off a slow reader", d)
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
