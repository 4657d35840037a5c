package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/tcp"
)

// serveAdmin serves s on a loopback listener until the test ends and returns
// its address.
func serveAdmin(t *testing.T, s *AdminServer) string {
	t.Helper()
	ln := listenLoopback(t)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve after Close: %v", err)
		}
	})
	return ln.Addr().String()
}

// listenLoopback opens a listener on a free loopback port.
func listenLoopback(t *testing.T) tcp.Listener {
	t.Helper()
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// adminDo asks a's responder for path over a real connection, through
// net/http's client, with accept as the Accept header ("" sends none).
func adminDo(t *testing.T, a Admin, path, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+serveAdmin(t, a.Server())+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, string(body)
}

func adminGet(t *testing.T, a Admin, path string) (int, string) {
	t.Helper()
	resp, body := adminDo(t, a, path, "")
	return resp.StatusCode, body
}

// exchange writes raw on a fresh connection to addr, reads one reply per
// method with net/http's parser, and fails unless the responder then closes
// the connection.
func exchange(t *testing.T, addr, raw string, methods ...string) ([]*http.Response, []string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	var replies []*http.Response
	var bodies []string
	for _, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("reading the reply to %s %q: %v", m, raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading the body of the reply to %q: %v", raw, err)
		}
		replies, bodies = append(replies, resp), append(bodies, string(body))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after %d replies to %q: read %v, want the responder to close", len(methods), raw, err)
	}
	return replies, bodies
}

// waitFor polls cond until it holds, for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestAdminProbes(t *testing.T) {
	ready := false
	a := Admin{Ready: func() bool { return ready }}
	if code, body := adminGet(t, a, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := adminGet(t, a, "/readyz"); code != 503 {
		t.Fatalf("/readyz = %d before ready, want 503", code)
	}
	ready = true
	if code, body := adminGet(t, a, "/readyz"); code != 200 || body != "ok\n" {
		t.Fatalf("/readyz = %d %q after ready", code, body)
	}
	// Zero-value Admin: readyz defaults to ready, statusz to an empty object.
	if code, _ := adminGet(t, Admin{}, "/readyz"); code != 200 {
		t.Fatal("zero Admin /readyz not 200")
	}
	if code, body := adminGet(t, Admin{}, "/statusz"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("zero Admin /statusz = %d %q", code, body)
	}
	// No registry, no /metrics; an unknown path is a 404 too.
	for _, path := range []string{"/metrics", "/nope", "/healthz/"} {
		if code, _ := adminGet(t, Admin{}, path); code != 404 {
			t.Fatalf("zero Admin %s = %d, want 404", path, code)
		}
	}
}

func TestAdminStatusz(t *testing.T) {
	type doc struct {
		Events int `json:"events"`
	}
	a := Admin{Status: func() any { return doc{Events: 99} }}
	code, body := adminGet(t, a, "/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var got doc
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.Events != 99 {
		t.Fatalf("/statusz body %q: err=%v got=%+v", body, err, got)
	}
	// A document that does not encode is a 500, not a truncated 200.
	if code, _ := adminGet(t, Admin{Status: func() any { return func() {} }}, "/statusz"); code != 500 {
		t.Fatalf("unencodable /statusz = %d, want 500", code)
	}
}

func TestAdminTracez(t *testing.T) {
	ring := newTraceRing(64)
	for i := 1; i <= 30; i++ {
		ring.record(Op{Kind: "ingest", Size: i, Duration: time.Duration(i) * time.Millisecond})
	}
	a := Admin{Ops: ring}
	code, body := adminGet(t, a, "/tracez?n=5")
	if code != 200 {
		t.Fatalf("/tracez = %d", code)
	}
	var got struct {
		Total   uint64 `json:"total"`
		Recent  []Op   `json:"recent"`
		Slowest []Op   `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/tracez not JSON: %v\n%s", err, body)
	}
	if got.Total != 30 || len(got.Recent) != 5 || len(got.Slowest) != 5 {
		t.Fatalf("tracez = total %d, %d recent, %d slowest; want 30/5/5",
			got.Total, len(got.Recent), len(got.Slowest))
	}
	if got.Recent[4].Size != 30 {
		t.Fatalf("recent is not the newest ops: %+v", got.Recent)
	}
	if got.Slowest[0].Duration != 30*time.Millisecond {
		t.Fatalf("slowest[0] = %+v", got.Slowest[0])
	}
}

func TestAdminMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x_total", "X.").Add(3)
	a := Admin{Registry: reg}
	if code, body := adminGet(t, a, "/metrics"); code != 200 || !strings.Contains(body, "x_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, _ := adminGet(t, a, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestAdminProfiles covers the profiling surface runtime/pprof backs: the
// index, a named profile in both forms, the CPU profile and the execution
// trace streamed for a bounded number of seconds, and the refusals.
func TestAdminProfiles(t *testing.T) {
	a := Admin{}
	if code, body := adminGet(t, a, "/debug/pprof/"); code != 200 || !strings.Contains(body, "heap?debug=1") {
		t.Fatalf("/debug/pprof/ = %d %q", code, body)
	}
	if code, body := adminGet(t, a, "/debug/pprof/heap?debug=1&gc=1"); code != 200 || !strings.Contains(body, "heap profile:") {
		t.Fatalf("/debug/pprof/heap?debug=1 = %d %.80q", code, body)
	}
	resp, body := adminDo(t, a, "/debug/pprof/goroutine", "")
	if resp.StatusCode != 200 || !strings.HasPrefix(body, "\x1f\x8b") ||
		!strings.Contains(resp.Header.Get("Content-Disposition"), `"goroutine"`) {
		t.Fatalf("/debug/pprof/goroutine = %d %v, %d bytes: want a gzipped download", resp.StatusCode, resp.Header, len(body))
	}
	resp, body = adminDo(t, a, "/debug/pprof/profile?seconds=0.2", "")
	if resp.StatusCode != 200 || !strings.HasPrefix(body, "\x1f\x8b") || !resp.Close {
		t.Fatalf("CPU profile = %d close=%v, %d bytes: want a gzipped stream that closes", resp.StatusCode, resp.Close, len(body))
	}
	resp, body = adminDo(t, a, "/debug/pprof/trace?seconds=0.1", "")
	if resp.StatusCode != 200 || !strings.HasPrefix(body, "go 1.") {
		t.Fatalf("trace = %d, %.16q", resp.StatusCode, body)
	}
	for _, path := range []string{
		"/debug/pprof/profile?seconds=61", "/debug/pprof/profile?seconds=0",
		"/debug/pprof/trace?seconds=x", "/debug/pprof/trace?seconds=NaN",
		"/debug/pprof/heap?seconds=30", // a delta is not served; the cumulative profile is not one
	} {
		if code, _ := adminGet(t, a, path); code != 400 {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}
	if code, _ := adminGet(t, a, "/debug/pprof/nope"); code != 404 {
		t.Errorf("unknown profile = %d, want 404", code)
	}

	// A CPU profile that cannot start (one already runs) is a 500 with the
	// reason, not a 200 with nothing behind it.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("cannot start a CPU profile in the test: %v", err)
	}
	code, msg := adminGet(t, a, "/debug/pprof/profile?seconds=1")
	pprof.StopCPUProfile()
	if code != 500 || !strings.Contains(msg, "could not start the profile") {
		t.Fatalf("profile while another runs = %d %q, want 500", code, msg)
	}
}

// TestAdminResponderRefusals: every request the responder does not serve is
// answered with its status and the connection closed, the reply reaching the
// peer even when it has sent a body the responder never reads.
func TestAdminResponderRefusals(t *testing.T) {
	addr := serveAdmin(t, Admin{}.Server())
	long := strings.Repeat("a", adminMaxLine)
	pad := "X-Pad: " + strings.Repeat("p", 1000) + "\r\n"
	for _, tc := range []struct {
		name, raw string
		status    int
	}{
		{"post", "POST /healthz HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\nabc", 405},
		{"body", "GET /healthz HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello", 413},
		{"chunked body", "GET /healthz HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 413},
		{"big body", "GET /healthz HTTP/1.1\r\nContent-Length: 300000\r\n\r\n" + strings.Repeat("b", 300000), 413},
		{"version", "GET /healthz HTTP/2.0\r\n\r\n", 505},
		{"request line", "GET/healthz\r\n\r\n", 400},
		{"method", "G(T /healthz HTTP/1.1\r\n\r\n", 400},
		{"field", "GET /healthz HTTP/1.1\r\nno colon\r\n\r\n", 400},
		{"folded field", "GET /healthz HTTP/1.1\r\nAccept: a\r\n b\r\n\r\n", 400},
		{"control byte", "GET /healthz HTTP/1.1\r\nAccept: a\x01b\r\n\r\n", 400},
		{"target", "GET healthz HTTP/1.1\r\n\r\n", 400},
		{"absolute target", "GET http://a/healthz HTTP/1.1\r\n\r\n", 400},
		{"long line", "GET /" + long + " HTTP/1.1\r\n\r\n", 431},
		{"long head", "GET /healthz HTTP/1.1\r\n" + strings.Repeat(pad, 9) + "\r\n", 431},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replies, _ := exchange(t, addr, tc.raw, "GET")
			if r := replies[0]; r.StatusCode != tc.status || !r.Close {
				t.Fatalf("%d close=%v, want %d and close", r.StatusCode, r.Close, tc.status)
			}
			if allow := replies[0].Header.Get("Allow"); tc.status == 405 && allow != "GET, HEAD" {
				t.Fatalf("405 Allow = %q", allow)
			}
		})
	}
}

// TestAdminHead: a HEAD reply carries the GET's length and no body, and a
// connection is answered once and closed, a request pipelined behind the
// first included.
func TestAdminHead(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x_total", "X.").Add(3)
	addr := serveAdmin(t, Admin{Registry: reg}.Server())
	gets, bodies := exchange(t, addr, "GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n", "GET")
	if gets[0].StatusCode != 200 || !gets[0].Close || !strings.Contains(bodies[0], "x_total 3") {
		t.Fatalf("GET reply %d close=%v body %q", gets[0].StatusCode, gets[0].Close, bodies[0])
	}
	heads, empty := exchange(t, addr,
		"HEAD /metrics HTTP/1.1\r\nHost: a\r\n\r\nGET /healthz HTTP/1.1\r\nHost: a\r\n\r\n", "HEAD")
	if heads[0].StatusCode != 200 || empty[0] != "" || heads[0].ContentLength != int64(len(bodies[0])) {
		t.Fatalf("HEAD reply %d, length %d, body %q; the GET's body is %d bytes",
			heads[0].StatusCode, heads[0].ContentLength, empty[0], len(bodies[0]))
	}
}

// TestAdminConnectionBound: AdminMaxConns connections are served at once, the
// next is closed unanswered, and a slot freed is served again.
func TestAdminConnectionBound(t *testing.T) {
	s := Admin{}.Server()
	addr := serveAdmin(t, s)
	var idle []net.Conn
	for i := 0; i < AdminMaxConns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle = append(idle, c)
	}
	waitFor(t, "the idle connections to take every slot", func() bool { return len(s.slots) == AdminMaxConns })
	past, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	past.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(past, "GET /healthz HTTP/1.1\r\n\r\n")
	if rest, _ := io.ReadAll(past); len(rest) != 0 { // EOF or a reset, with nothing before it
		t.Fatalf("connection past the bound answered %q", rest)
	}
	past.Close()
	idle[0].Close()
	waitFor(t, "a slot to free", func() bool { return len(s.slots) < AdminMaxConns })
	if replies, _ := exchange(t, addr, "GET /healthz HTTP/1.1\r\n\r\n", "GET"); replies[0].StatusCode != 200 {
		t.Fatalf("connection after a slot freed = %d, want 200", replies[0].StatusCode)
	}
}

// pipeListener hands out the server ends of in-memory pipes, which hold no
// buffer: a reply the peer does not read blocks its writer.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func (l pipeListener) Accept() (tcp.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, tcp.ErrClosed
	}
}

func (l pipeListener) Close() error         { close(l.closed); return nil }
func (l pipeListener) Addr() netip.AddrPort { return netip.AddrPort{} }

// TestAdminCloseBoundsStalledWrite: a peer that sends a request and never
// reads the reply holds Close for adminGrace, not for the write timeout.
func TestAdminCloseBoundsStalledWrite(t *testing.T) {
	s := Admin{}.Server()
	ln := pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	peer, conn := net.Pipe()
	defer peer.Close()
	ln.conns <- conn
	io.WriteString(peer, "GET /healthz HTTP/1.1\r\n\r\n")
	waitFor(t, "the request to be read", func() bool { return len(s.slots) == 1 })
	time.Sleep(50 * time.Millisecond) // let the reply reach its blocked write
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > adminGrace+time.Second {
		t.Fatalf("Close took %v with a stalled reply; the grace is %v", d, adminGrace)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// TestAdminServeEndsWhenListenerClosedElsewhere: a listener closed by
// anyone but Close ends Serve with its error instead of a retry loop.
func TestAdminServeEndsWhenListenerClosedElsewhere(t *testing.T) {
	s := Admin{}.Server()
	defer s.Close()
	ln := listenLoopback(t)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	ln.Close()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve returned nil for a listener closed under it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept accepting on a closed listener")
	}
}

// TestAdminAcceptRetries: a failed accept other than a closed listener (here
// EMFILE, a full file table) is retried, and the next connection answered.
func TestAdminAcceptRetries(t *testing.T) {
	s := Admin{}.Server()
	pl := pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	client, conn := net.Pipe()
	defer client.Close()
	pl.conns <- conn
	served := make(chan error, 1)
	go func() { served <- s.Serve(&failOnce{Listener: pl}) }()

	client.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(client, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatalf("after one EMFILE the admin port is not served: %v", err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "HTTP/1.1 200 ") {
		t.Fatalf("/healthz answered %q, %v", line, err)
	}
	client.Close()
	s.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// failOnce fails its first Accept with EMFILE, then accepts from Listener.
type failOnce struct {
	tcp.Listener
	failed atomic.Bool
}

func (l *failOnce) Accept() (tcp.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &os.PathError{Op: "accept", Path: "fake", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAdminReadTimeout: a peer that sends nothing or half a head is closed
// when the read timeout runs out; one that sends a whole head is answered
// and closed.
func TestAdminReadTimeout(t *testing.T) {
	s := Admin{}.Server()
	s.readTimeout = 50 * time.Millisecond
	addr := serveAdmin(t, s)
	for _, raw := range []string{"", "GET /healthz HTTP/1.1\r\n", "GET /healthz HTTP/1.1\r\n\r\n"} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		io.WriteString(c, raw)
		rest, err := io.ReadAll(c)
		c.Close()
		if err != nil {
			t.Fatalf("after %q: %v, want the responder to close", raw, err)
		}
		if want := strings.HasSuffix(raw, "\r\n\r\n"); want != bytes.HasPrefix(rest, []byte("HTTP/1.1 200 ")) {
			t.Fatalf("after %q the responder sent %q", raw, rest)
		}
	}
}

// TestAdminCloseEndsTrace: Close does not wait out a running trace; the trace
// stops early and is still delivered, and Close returns once it is.
func TestAdminCloseEndsTrace(t *testing.T) {
	s := Admin{}.Server()
	addr := serveAdmin(t, s)
	got := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		io.WriteString(c, "GET /debug/pprof/trace?seconds=60 HTTP/1.1\r\n\r\n")
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			got <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		if err == nil && (resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte("go 1."))) {
			err = fmt.Errorf("reply %d, %.16q", resp.StatusCode, body)
		}
		got <- err
	}()
	waitFor(t, "the trace to start", trace.IsEnabled)
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v with a 60 s trace running", d)
	}
	if err := <-got; err != nil {
		t.Fatalf("the trace cut short by Close: %v", err)
	}
}

func TestAdminTracezSpanStore(t *testing.T) {
	store := newTraceStore(8)
	t0 := time.Now().Add(-time.Second)
	blue := NewTrace(OpIngest, "blue", 10, t0)
	blue.Span("validate", -1, -1, t0, time.Millisecond)
	blue.Finish(nil)
	store.Add(blue)
	green := NewTrace(OpIngest, "green", 5, t0)
	green.Finish(nil)
	store.Add(green)
	a := Admin{Ops: newTraceRing(8), Traces: store}

	code, body := adminGet(t, a, "/tracez?tenant=blue")
	if code != 200 {
		t.Fatalf("/tracez?tenant=blue = %d", code)
	}
	var got struct {
		Total      uint64          `json:"total"`
		TraceTotal uint64          `json:"trace_total"`
		Tenants    []string        `json:"tenants"`
		Traces     []TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/tracez not JSON: %v\n%s", err, body)
	}
	if got.TraceTotal != 1 || len(got.Traces) != 1 || got.Traces[0].Tenant != "blue" {
		t.Fatalf("tenant filter leaked: %+v", got)
	}
	if len(got.Tenants) != 2 {
		t.Fatalf("tenants = %v, want [blue green]", got.Tenants)
	}
	if len(got.Traces[0].Spans) != 1 || got.Traces[0].Spans[0].Name != "validate" {
		t.Fatalf("span tree = %+v", got.Traces[0].Spans)
	}

	// Exemplar resolution: one trace by ID.
	code, body = adminGet(t, a, fmt.Sprintf("/tracez?trace=%d", blue.ID()))
	if code != 200 {
		t.Fatalf("/tracez?trace= = %d", code)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.ID != blue.ID() {
		t.Fatalf("trace lookup = %+v err=%v", snap, err)
	}
	if code, _ := adminGet(t, a, "/tracez?trace=99999999"); code != 404 {
		t.Fatalf("missing trace = %d, want 404", code)
	}
	if code, _ := adminGet(t, a, "/tracez?trace=xyz"); code != 400 {
		t.Fatalf("bad trace id = %d, want 400", code)
	}
}

// FuzzAdminRequestHead holds the request-head reader to its bounds and to
// net/http's reading: whatever it serves, net/http reads as the same method
// and path; whatever it refuses, it refuses with a status it can name.
func FuzzAdminRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /metrics HTTP/1.1\r\nHost: a\r\nAccept: application/openmetrics-text\r\n\r\n",
		"HEAD /tracez?n=5&tenant=blue HTTP/1.0\r\n\r\n",
		"GET /debug/pprof/profile?seconds=2 HTTP/1.1\nConnection: close\n\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
		"GET /%zz?%zz HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("A: b\r\n", 2000) + "\r\n",
		"\r\nGET / HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, head []byte) {
		src := bytes.NewReader(head)
		br := bufio.NewReaderSize(src, adminMaxLine)
		req, err := readAdminRequest(br)
		if err != nil {
			var refusal adminError
			if errors.As(err, &refusal) && statusText[refusal.status] == "" {
				t.Fatalf("refused with status %d, which has no reason phrase", refusal.status)
			}
			return
		}
		if used := len(head) - src.Len() - br.Buffered(); used > adminMaxHead {
			t.Fatalf("served a head of %d bytes, past the %d-byte bound", used, adminMaxHead)
		}
		std, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
		if err != nil {
			t.Fatalf("served %q, which net/http refuses: %v", head, err)
		}
		if std.Method != req.method || std.URL.Path != req.path {
			t.Fatalf("served %q as %s %q; net/http reads %s %q", head, req.method, req.path, std.Method, std.URL.Path)
		}
	})
}
