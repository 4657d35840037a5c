package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tcp"
)

// Admin describes the daemon's admin HTTP surface. Any field may be left
// zero; the corresponding endpoint then serves a sensible default (readyz
// always ready, statusz empty object, tracez empty lists).
type Admin struct {
	// Registry backs /metrics.
	Registry *Registry
	// Ready gates /readyz: 200 when it returns true, 503 otherwise.
	Ready func() bool
	// Status produces the JSON document served at /statusz.
	Status func() any
	// Ops backs /tracez (flat recent/slowest op lists).
	Ops *TraceRing
	// Traces backs the span-tree side of /tracez (sampled batch traces,
	// per tenant, with ?trace=<id> lookup for exemplar resolution).
	Traces *TraceStore
}

// The admin responder's bounds. The plane answers an operator and a scraper,
// so everything a peer can make it hold is capped, and a request outside the
// caps is answered with its status and the connection closed.
const (
	// AdminMaxConns is how many connections are served at once; past them a
	// connection is closed unanswered.
	AdminMaxConns = 16
	// adminMaxLine bounds one line of a request head (the read buffer), and
	// adminMaxHead the request line and header fields together: past either
	// the request is answered 431.
	adminMaxLine = 4 << 10
	adminMaxHead = 8 << 10
	// adminMaxSeconds bounds ?seconds= of a CPU profile or an execution trace.
	adminMaxSeconds = 60
	// adminTimeout bounds the wait for the request head and the writing of
	// the reply (a profile or a trace has its duration on top).
	adminTimeout = 10 * time.Second
	// adminGrace is what Close leaves a reply in flight to be written.
	adminGrace = 2 * time.Second
	// adminLinger bounds what is read and dropped after a reply.
	adminLinger = 64 << 10
)

// AdminServer answers Admin's endpoints over HTTP/1.1. It is a responder,
// not a general server: one GET or HEAD per connection, no request bodies, no
// TLS, no upgrades. A reply is rendered into a buffer and sent with its
// length; a CPU profile or an execution trace is streamed instead. Either way
// the connection is closed after it. Doing without net/http keeps the TLS
// stack, HTTP/2 and the certificate code out of the daemon's image
// (DESIGN.md §9).
type AdminServer struct {
	admin       Admin
	readTimeout time.Duration // adminTimeout; shorter in tests

	slots chan struct{} // one per connection served
	done  chan struct{} // closed by Close: a running profile stops early

	mu     sync.Mutex
	closed bool
	ln     tcp.Listener
	conns  map[tcp.Conn]struct{}
	wg     sync.WaitGroup
}

// Server returns a responder for a's endpoints:
//
//	/metrics        Prometheus text exposition of Registry (OpenMetrics
//	                when the scrape's Accept header asks for it)
//	/healthz        liveness (always 200 while the process serves)
//	/readyz         readiness per Ready
//	/statusz        JSON from Status
//	/tracez         JSON {total, recent, slowest, trace_total, tenants, traces}:
//	                flat op lists from Ops plus sampled span trees from Traces.
//	                ?n=50 bounds list lengths, ?tenant=blue filters both sides
//	                to one namespace, ?trace=123 resolves one trace ID (the
//	                target of a /metrics exemplar) to its span tree.
//	/debug/pprof/   runtime/pprof's profiles by name (?debug=N for text,
//	                heap?gc=1 collects first), profile?seconds=30 (CPU),
//	                trace?seconds=1 and cmdline; the bare path lists them.
func (a Admin) Server() *AdminServer {
	return &AdminServer{
		admin:       a,
		readTimeout: adminTimeout,
		slots:       make(chan struct{}, AdminMaxConns),
		done:        make(chan struct{}),
		conns:       make(map[tcp.Conn]struct{}),
	}
}

// Serve answers connections from ln, each on its own goroutine, until Close,
// and then returns nil. A failed accept is retried after a pause that
// doubles up to a second (a full file table clears by itself); a listener
// closed by anyone but Close ends Serve with its error.
func (s *AdminServer) Serve(ln tcp.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ln.Close()
	}
	s.ln = ln
	s.mu.Unlock()
	var pause time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
			}
			if errors.Is(err, tcp.ErrClosed) {
				return err
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			time.Sleep(pause)
			continue
		}
		pause = 0
		select {
		case s.slots <- struct{}{}:
		default:
			c.Close()
			continue
		}
		if !s.track(c) {
			c.Close()
			<-s.slots
			return nil
		}
		go func() {
			s.serveConn(c)
			s.untrack(c)
			<-s.slots
		}()
	}
}

// Close stops accepting, ends every connection once its reply in flight is
// written (a running CPU profile or trace stops early and is sent), and
// waits for their goroutines. A reply gets adminGrace from Close to be
// written, so a peer that stops reading cannot hold it longer.
func (s *AdminServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now) // a connection waiting for its request ends now
		c.SetWriteDeadline(now.Add(adminGrace))
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track lists a connection for Close to end and wait for, and arms its read
// deadline for the request head, unless Close already ran.
func (s *AdminServer) track(c tcp.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	c.SetReadDeadline(time.Now().Add(s.readTimeout))
	return true
}

func (s *AdminServer) untrack(c tcp.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

// armWrite gives c d to write its reply, unless Close ran. It holds the lock
// Close takes, so it never pushes back the deadline Close set.
func (s *AdminServer) armWrite(c tcp.Conn, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		c.SetWriteDeadline(time.Now().Add(d))
	}
}

// serveConn answers c's one request, or refuses it, unless the peer closes
// or the read times out first.
func (s *AdminServer) serveConn(c tcp.Conn) {
	req, err := readAdminRequest(bufio.NewReaderSize(c, adminMaxLine))
	rep := adminReply{status: 200}
	var refusal adminError
	switch {
	case errors.As(err, &refusal):
		rep.text(refusal.status, refusal.reason)
		if refusal.status == 405 {
			rep.header = "Allow: GET, HEAD\r\n"
		}
	case err != nil:
		return // closed or timed out: nothing to answer
	default:
		req.done = s.done
		s.admin.serve(&req, &rep)
	}
	s.armWrite(c, adminTimeout+rep.duration)
	if rep.write(bufio.NewWriterSize(c, 4<<10), req.method == "HEAD") == nil {
		linger(c)
	}
}

// linger shuts c's write side, then reads and drops up to adminLinger bytes
// for up to a second before c is closed, because closing a socket with input
// unread resets it, and the reset can overtake the reply: a body sent with a
// refused request, or a request pipelined behind the one answered.
func linger(c tcp.Conn) {
	if hc, ok := c.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		c.SetReadDeadline(time.Now().Add(time.Second))
		io.CopyN(io.Discard, c, adminLinger)
	}
}

// adminError is a request refused before it is routed: the status it is
// answered with and the reason.
type adminError struct {
	status int
	reason string
}

func (e adminError) Error() string { return e.reason }

// adminRequest is what the endpoints read of a request.
type adminRequest struct {
	method string
	path   string
	query  url.Values
	accept string
	done   <-chan struct{}
}

// readAdminRequest reads one request head (RFC 9112 §3–§5) within the bounds
// above. A request the responder does not serve — a malformed head, a method
// other than GET or HEAD, a body, a version other than HTTP/1.0 or 1.1 — is
// an adminError; any other error is the connection's (closed, timed out).
func readAdminRequest(br *bufio.Reader) (adminRequest, error) {
	var req adminRequest
	line, used, err := readHeadLine(br, 0)
	if err != nil {
		return req, err
	}
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !isToken(method) {
		return req, adminError{400, "malformed request line\n"}
	}
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
		return req, adminError{505, "HTTP/1.0 and HTTP/1.1 only\n"}
	}
	body := false
	for {
		line, used, err = readHeadLine(br, used)
		if err != nil {
			return req, err
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) || !isFieldValue(value) {
			return req, adminError{400, "malformed header field\n"}
		}
		value = strings.Trim(value, " \t")
		switch {
		case strings.EqualFold(name, "Accept"):
			req.accept += value + ","
		case strings.EqualFold(name, "Content-Length"):
			body = body || value != "0"
		case strings.EqualFold(name, "Transfer-Encoding"):
			body = true
		}
	}
	if method != "GET" && method != "HEAD" {
		return req, adminError{405, "GET and HEAD only\n"}
	}
	if body {
		return req, adminError{413, "the admin plane takes no request body\n"}
	}
	u, err := url.ParseRequestURI(target)
	if err != nil || !strings.HasPrefix(target, "/") {
		return req, adminError{400, "malformed request target\n"}
	}
	req.query, _ = url.ParseQuery(u.RawQuery) // what parsed, as net/http's Query does
	req.method, req.path = method, u.Path
	return req, nil
}

// readHeadLine reads one line of a request head, CRLF or bare LF ended; used
// is what the head has taken so far, and the line may not take it past
// adminMaxHead.
func readHeadLine(br *bufio.Reader, used int) (string, int, error) {
	b, err := br.ReadSlice('\n')
	used += len(b)
	if errors.Is(err, bufio.ErrBufferFull) || used > adminMaxHead {
		return "", used, adminError{431, "request head too large\n"}
	}
	if err != nil {
		return "", used, err
	}
	return string(bytes.TrimSuffix(b[:len(b)-1], []byte{'\r'})), used, nil
}

// isToken reports whether s is an RFC 9110 token: a method or a field name.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return s != ""
}

// isFieldValue reports whether s holds no control byte but a tab.
func isFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}

// adminReply is a reply being built: a status, a content type, extra header
// lines, and a body, or a stream (a CPU profile, an execution trace) written
// to the connection as it is produced.
type adminReply struct {
	status int
	ctype  string
	header string // extra header lines, each CRLF-ended
	body   bytes.Buffer
	// stream, when set, replaces body; duration is how long it runs, added
	// to the write timeout.
	stream   func(w io.Writer) error
	duration time.Duration
}

// text sets a plain-text reply.
func (r *adminReply) text(status int, s string) {
	r.status, r.ctype, r.header = status, "text/plain; charset=utf-8", ""
	r.body.Reset()
	r.body.WriteString(s)
}

// json sets a JSON reply, or a 500 when doc does not encode.
func (r *adminReply) json(doc any) {
	r.ctype = "application/json; charset=utf-8"
	enc := json.NewEncoder(&r.body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		r.text(500, err.Error()+"\n")
	}
}

// download marks the reply as a file named name (a binary profile).
func (r *adminReply) download(name string) {
	r.ctype = "application/octet-stream"
	r.header = fmt.Sprintf("Content-Disposition: attachment; filename=%q\r\n", name)
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	413: "Content Too Large",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
	503: "Service Unavailable",
	505: "HTTP Version Not Supported",
}

// writeHead writes the status line and header fields; length < 0 leaves
// Content-Length out (a stream, ended by closing the connection).
func (r *adminReply) writeHead(bw *bufio.Writer, length int) {
	fmt.Fprintf(bw, "HTTP/1.1 %d %s\r\nDate: %s\r\n", r.status, statusText[r.status],
		time.Now().UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT"))
	if r.ctype != "" {
		fmt.Fprintf(bw, "Content-Type: %s\r\n", r.ctype)
	}
	bw.WriteString(r.header)
	if length >= 0 {
		fmt.Fprintf(bw, "Content-Length: %d\r\n", length)
	}
	bw.WriteString("Connection: close\r\n\r\n")
}

// write sends the reply; head leaves the body out (a HEAD request, which
// does not run a stream). A stream that fails before its first byte is
// answered 500 instead.
func (r *adminReply) write(bw *bufio.Writer, head bool) error {
	switch {
	case r.stream != nil && head:
		r.writeHead(bw, -1)
	case r.stream != nil:
		out := &streamOut{bw: bw, rep: r}
		if err := r.stream(out); err != nil && !out.started {
			r.stream = nil
			r.text(500, err.Error()+"\n")
			return r.write(bw, false)
		}
	default:
		r.writeHead(bw, r.body.Len())
		if !head {
			bw.Write(r.body.Bytes())
		}
	}
	return bw.Flush()
}

// streamOut is a stream's writer: the reply's head goes out with its first
// byte, so a stream that cannot start is still answered with a status.
type streamOut struct {
	bw      *bufio.Writer
	rep     *adminReply
	started bool
}

func (o *streamOut) Write(p []byte) (int, error) {
	if !o.started {
		o.started = true
		o.rep.writeHead(o.bw, -1)
	}
	return o.bw.Write(p)
}

// serve routes one request.
func (a Admin) serve(req *adminRequest, r *adminReply) {
	switch p := req.path; {
	case p == "/metrics" && a.Registry != nil:
		om := strings.Contains(req.accept, "application/openmetrics-text")
		r.ctype = contentTypeClassic
		if om {
			r.ctype = contentTypeOpenMetrics
		}
		a.Registry.write(&r.body, om)
	case p == "/healthz":
		r.text(200, "ok\n")
	case p == "/readyz":
		if a.Ready != nil && !a.Ready() {
			r.text(503, "not ready\n")
			return
		}
		r.text(200, "ok\n")
	case p == "/statusz":
		var doc any = struct{}{}
		if a.Status != nil {
			doc = a.Status()
		}
		r.json(doc)
	case p == "/tracez":
		a.tracez(req.query, r)
	case strings.HasPrefix(p, "/debug/pprof/"):
		servePprof(strings.TrimPrefix(p, "/debug/pprof/"), req, r)
	default:
		r.text(404, "404 page not found\n")
	}
}

func (a Admin) tracez(q url.Values, r *adminReply) {
	n := 50
	if s := q.Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	tenant := q.Get("tenant")

	if s := q.Get("trace"); s != "" {
		// Exemplar resolution: one trace by ID.
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			r.text(400, "bad trace id\n")
			return
		}
		tr := a.Traces.Find(TraceID(id))
		if tr == nil {
			r.text(404, "trace not found (evicted or never sampled)\n")
			return
		}
		r.json(tr.Snapshot())
		return
	}

	recent := filterOps(a.Ops.Snapshot(), tenant)
	if len(recent) > n {
		recent = recent[len(recent)-n:]
	}
	slowest := filterOps(a.Ops.Slowest(-1), tenant)
	if len(slowest) > n {
		slowest = slowest[:n]
	}
	var traces []TraceSnapshot
	for _, tr := range a.Traces.Snapshot(tenant, n) {
		traces = append(traces, tr.Snapshot())
	}
	r.json(struct {
		Total      uint64          `json:"total"`
		Recent     []Op            `json:"recent"`
		Slowest    []Op            `json:"slowest"`
		TraceTotal uint64          `json:"trace_total"`
		Tenants    []string        `json:"tenants,omitempty"`
		Traces     []TraceSnapshot `json:"traces,omitempty"`
	}{a.Ops.Total(), recent, slowest, a.Traces.Total(tenant), a.Traces.Tenants(), traces})
}

// filterOps narrows an op list to one tenant; tenant "" keeps everything.
func filterOps(ops []Op, tenant string) []Op {
	if tenant == "" {
		return ops
	}
	out := ops[:0]
	for _, op := range ops {
		if op.Tenant == tenant {
			out = append(out, op)
		}
	}
	return out
}

// servePprof answers /debug/pprof/<name>: what net/http/pprof serves, less
// the symbol endpoint (a profile runtime/pprof writes carries its symbols)
// and ?seconds= deltas of the named profiles, which are refused rather than
// answered with the cumulative profile.
func servePprof(name string, req *adminRequest, r *adminReply) {
	switch name {
	case "":
		r.text(200, "/debug/pprof/\n\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&r.body, "%8d  %s?debug=1\n", p.Count(), p.Name())
		}
		r.body.WriteString("          profile?seconds=30  CPU profile\n" +
			"          trace?seconds=1     execution trace\n" +
			"          cmdline             the command line, NUL-separated\n")
	case "cmdline":
		r.text(200, strings.Join(os.Args, "\x00"))
	case "profile":
		sample(req, r, "profile", 30, pprof.StartCPUProfile, pprof.StopCPUProfile)
	case "trace":
		sample(req, r, "trace", 1, trace.Start, trace.Stop)
	default:
		p := pprof.Lookup(name)
		if p == nil {
			r.text(404, "unknown profile\n")
			return
		}
		if req.query.Has("seconds") {
			r.text(400, "seconds is served for profile and trace only\n")
			return
		}
		debug, _ := strconv.Atoi(req.query.Get("debug"))
		if gc := req.query.Get("gc"); name == "heap" && gc != "" && gc != "0" {
			runtime.GC()
		}
		if debug != 0 {
			r.ctype = "text/plain; charset=utf-8"
		} else {
			r.download(name)
		}
		if err := p.WriteTo(&r.body, debug); err != nil {
			r.text(500, err.Error()+"\n")
		}
	}
}

// sample sets a stream that runs start for ?seconds= (def when absent, at
// most adminMaxSeconds) or until the server closes, then stop.
func sample(req *adminRequest, r *adminReply, name string, def float64, start func(io.Writer) error, stop func()) {
	secs := def
	if s := req.query.Get("seconds"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0 && v <= adminMaxSeconds) {
			r.text(400, fmt.Sprintf("seconds must be a number in (0, %d]\n", adminMaxSeconds))
			return
		}
		secs = v
	}
	r.download(name)
	r.duration = time.Duration(secs * float64(time.Second))
	d, done := r.duration, req.done
	r.stream = func(w io.Writer) error {
		if err := start(w); err != nil {
			return fmt.Errorf("could not start the %s: %w", name, err)
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-done:
			t.Stop()
		}
		stop()
		return nil
	}
}
