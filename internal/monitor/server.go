package monitor

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// Server exposes a Monitor over TCP, completing the Figure 1 architecture:
// instrumented processes connect and stream their event records; query
// clients (visualization engines, control entities) connect and ask
// precedence questions. One wire format serves both roles on one port:
// protocol v2, length-prefixed binary frames carrying batches of events and
// queries (protocol.go has the framing spec). It is one codec over one
// request path (DESIGN.md §7): a frame decodes to a request, execute runs it
// against the connection's tenant scope, and the reply is rendered back as a
// frame.
//
// An event batch flows through a bounded submit queue into the collector,
// which takes the monitor's write lock once per deliverable run; query
// batches are lock-free — each is answered against a single captured
// watermark of the published store (Monitor.QueryBatch), so queries from any
// number of connections run fully in parallel and never stall ingestion.
//
// Events may arrive out of order across connections; the server feeds them
// through a Collector. The server is safe for many concurrent connections
// and enforces the configured connection, batch-size and deadline limits.
//
// The server is namespace-aware: every connection is scoped to one tenant
// (a TENANT frame selects it; absent selection it is the "default" tenant)
// and all event, query and STATS traffic routes to that tenant's Collector,
// Monitor and replay plane. See tenant.go for the registry and quota model.
type Server struct {
	cfg      ServerConfig
	counters serverCounters
	obs      *obs.Telemetry // nil: uninstrumented
	start    time.Time
	submitQ  chan submitReq

	def      *Tenant // the "default" namespace; never nil
	tenantMu sync.Mutex
	tenants  map[string]*Tenant

	mu       sync.Mutex
	listener tcp.Listener
	conns    map[tcp.Conn]struct{}
	drained  chan struct{}  // non-nil while Shutdown waits; closed by the last conn's teardown
	wg       sync.WaitGroup // accept loop + connection goroutines
	ingestWG sync.WaitGroup // ingest worker
	closed   bool
}

// ServerConfig bounds the server's resource use. The zero value selects the
// defaults below.
type ServerConfig struct {
	// FixedVector is the fixed timestamp-encoding vector size STATS,
	// /metrics and /statusz account storage at. Default
	// metrics.DefaultFixedVector (300).
	FixedVector int
	// MaxConns caps simultaneously served connections; further dials are
	// answered with an ERR frame ("server full") and closed. Default 1024.
	MaxConns int
	// MaxBatch caps the records in one EVENTS or QUERY frame. Oversized
	// frames are rejected with an ERR frame. Default 8192.
	MaxBatch int
	// SubmitQueue bounds the event batches queued for ingestion across all
	// connections; producers block (TCP backpressure) when it is full.
	// Default 64.
	SubmitQueue int
	// IdleTimeout closes a connection that sends nothing for this long.
	// Zero means no read deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. Zero means no deadline.
	WriteTimeout time.Duration
	// Obs, when non-nil, instruments the server: ingest/query/decode
	// latency histograms, the op-trace ring, and — when Obs.Registry is
	// set — the throughput counters and the paper's Section 4 metrics as
	// live gauges on the registry. A Telemetry must serve at most one
	// Server (its metric names register once).
	Obs *obs.Telemetry
	// Tenants carries the tenant factory, which builds every namespace's
	// serving stack, the default one included, and the MaxTenants /
	// MaxEventsPerTenant quotas. NewTenantServer requires its New.
	Tenants *TenantsConfig
}

// HistoryProvider hands out frozen query surfaces over recorded history.
// HistoryAt materializes (or returns a cached) view of the computation as of
// the first cutoff events; CutoffLatest (2^64-1) selects everything recorded
// so far. Implementations must be safe for concurrent use.
type HistoryProvider interface {
	HistoryAt(cutoff uint64) (*Queries, error)
}

// HistoryStatus is a history provider's block on /statusz, for providers
// that have a HistoryStatus method.
type HistoryStatus struct {
	LastCutoff     uint64 `json:"last_cutoff"`     // cutoff of the newest view materialized
	EnginePosition uint64 `json:"engine_position"` // recorded events the provider's engine has read up to
	CachedViews    int    `json:"cached_views"`
	ReadBytes      int64  `json:"read_bytes"` // bytes this provider read from the log; poetd_history_read_bytes_total sums every tenant's
}

// CutoffLatest is the QUERY@ cutoff sentinel selecting the newest recorded
// event count (mirrored by replay.CutoffLatest).
const CutoffLatest = ^uint64(0)

// Defaults for the zero ServerConfig.
const (
	DefaultMaxConns    = 1024
	DefaultMaxBatch    = 8192
	DefaultSubmitQueue = 64
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.FixedVector <= 0 {
		c.FixedVector = metrics.DefaultFixedVector
	}
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.SubmitQueue <= 0 {
		c.SubmitQueue = DefaultSubmitQueue
	}
	return c
}

// submitReq is one event batch queued for ingestion, with the tenant it
// routes to and the channel its acknowledgement waits on (nil once the batch
// is applied, else why it was not). batch is the events' pooled holder. tr is
// the batch's span trace (nil when unsampled); qspan is its open queue span,
// closed when the worker picks the batch up.
type submitReq struct {
	tenant *Tenant
	batch  *[]model.Event
	done   chan error
	tr     *obs.Trace
	qspan  int
}

// NewTenantServer builds the server. Every namespace, the default one
// included, is created through cfg.Tenants.New, and the server closes the
// resources of each whose TenantResources.Close is set.
func NewTenantServer(cfg ServerConfig) (*Server, error) {
	if cfg.Tenants == nil || cfg.Tenants.New == nil {
		return nil, errors.New("monitor: NewTenantServer requires a tenant factory (ServerConfig.Tenants.New)")
	}
	cfg = cfg.withDefaults()
	// Without a registry the counters come from the nil registry, which
	// hands out instruments that count and are not exposed.
	var reg *obs.Registry
	if cfg.Obs != nil {
		reg = cfg.Obs.Registry
	}
	s := &Server{
		cfg: cfg,
		counters: serverCounters{
			EventsIngested:  reg.NewCounter("poetd_events_ingested_total", "Events accepted into the collector."),
			BatchesIngested: reg.NewCounter("poetd_batches_ingested_total", "Event batches acknowledged."),
			QueriesAnswered: reg.NewCounter("poetd_queries_answered_total", "Individual precedence queries answered."),
			QueryFrames:     reg.NewCounter("poetd_query_frames_total", "QUERY and QUERY@ frames served."),
			FramesRead:      reg.NewCounter("poetd_frames_read_total", "Protocol frames decoded."),
			ProtocolErrors:  reg.NewCounter("poetd_protocol_errors_total", "Malformed or rejected frames."),
			ConnsAccepted:   reg.NewCounter("poetd_conns_accepted_total", "Connections admitted."),
			ConnsRejected:   reg.NewCounter("poetd_conns_rejected_total", "Connections refused at the MaxConns limit."),
		},
		obs:     cfg.Obs,
		start:   time.Now(),
		submitQ: make(chan submitReq, cfg.SubmitQueue),
		conns:   make(map[tcp.Conn]struct{}),
		tenants: make(map[string]*Tenant),
	}
	def, err := s.Tenant(DefaultTenant)
	if err != nil {
		return nil, err
	}
	s.def = def
	if reg != nil {
		s.registerMetrics(reg)
	}
	s.ingestWG.Add(1)
	go s.ingestLoop()
	return s, nil
}

// serverCounters are the server-wide throughput instruments: events and
// batches ingested, precedence queries answered, and the protocol traffic
// seen. The instrument is the only storage a number has — the connection
// goroutines bump it, and STATS, /metrics and /statusz read it.
type serverCounters struct {
	EventsIngested, BatchesIngested, QueriesAnswered, QueryFrames *obs.Counter
	FramesRead, ProtocolErrors, ConnsAccepted, ConnsRejected      *obs.Counter
}

// Default returns the "default" tenant.
func (s *Server) Default() *Tenant { return s.def }

// Counters renders the server-wide throughput counters as they appear in a
// STATS body.
func (s *Server) Counters() string {
	c := &s.counters
	return fmt.Sprintf("ingested=%d batches=%d queries=%d qframes=%d frames=%d proto_errors=%d conns=%d rejected=%d",
		c.EventsIngested.Value(), c.BatchesIngested.Value(), c.QueriesAnswered.Value(), c.QueryFrames.Value(),
		c.FramesRead.Value(), c.ProtocolErrors.Value(), c.ConnsAccepted.Value(), c.ConnsRejected.Value())
}

// perSec is c's mean rate since the server started.
func (s *Server) perSec(c *obs.Counter) float64 {
	secs := time.Since(s.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(c.Value()) / secs
}

// ingestLoop is the single ingestion worker, the far end of execute's hop
// through submitQ: it applies queued event batches to the collector in
// arrival order. One worker suffices — the collector serializes on its own
// mutex — and decouples socket reading from ingestion, so a connection can
// decode its next frame while its previous batch is being timestamped.
func (s *Server) ingestLoop() {
	defer s.ingestWG.Done()
	for req := range s.submitQ {
		req.tr.End(req.qspan)
		n, err := s.submitInstrumented(req.tenant, *req.batch, req.tr)
		// The applied prefix counts even when the batch failed part-way: those
		// events are in the collector and will be delivered.
		s.counters.EventsIngested.Add(int64(n))
		if err == nil {
			s.counters.BatchesIngested.Inc()
		}
		req.done <- err
		// This loop is a decoded batch's last user: the collector copied every
		// event it accepted into its pending set or its run, and the pipeline
		// copies a run it is handed.
		eventBatches.put(req.batch)
	}
}

// submitInstrumented is SubmitBatch on a tenant's collector wrapped in the
// quota gate and the ingest telemetry: the end-to-end batch latency
// histogram (with the trace ID as a bucket exemplar when sampled) and one
// tenant-attributed op-trace record per batch. An over-quota batch is
// rejected whole before touching the collector — but it still gets an op
// record (duration 0: the rejection does no ingest work) and its trace, if
// sampled, is finished and retained, so quota incidents stay visible at
// /tracez. tr, when non-nil, threads the batch's span trace through the
// collector into the pipeline and is finished here.
func (s *Server) submitInstrumented(t *Tenant, events []model.Event, tr *obs.Trace) (int, error) {
	if err := t.checkQuota(len(events)); err != nil {
		s.obs.RecordOp(obs.OpIngest, t.name, len(events), time.Now(), 0, err, tr)
		return 0, err
	}
	start := s.now()
	n, err := t.collector.submitBatchTraced(events, tr)
	t.accepted.Add(int64(n))
	if o := s.obs; o != nil {
		d := time.Since(start)
		o.IngestBatch.ObserveExemplar(d, tr.ID())
		o.RecordOp(obs.OpIngest, t.name, len(events), start, d, err, tr)
	}
	return n, err
}

// Listen binds addr (e.g. "127.0.0.1:0"; the forms are tcp.ParseAddr's),
// serves it, and returns the bound address.
func (s *Server) Listen(addr string) (netip.AddrPort, error) {
	ln, err := tcp.Listen(addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	if err := s.Serve(ln); err != nil {
		return netip.AddrPort{}, err
	}
	return ln.Addr(), nil
}

// Serve starts accepting connections on ln, which the server owns from then
// on: Shutdown and Close close it, and a closed server closes it at once and
// returns ErrClosed. Serving happens on background goroutines until Close. A
// client that connected to ln before Serve was called waits in the listen
// backlog and gets its HELLO once accepted, so a daemon can bind before it
// builds and recovers what it serves.
func (s *Server) Serve(ln tcp.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln tcp.Listener) {
	defer s.wg.Done()
	for {
		conn, err := tcp.Accept(ln)
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.wg.Add(1)
			s.mu.Unlock()
			s.counters.ConnsRejected.Inc()
			go s.turnAway(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.counters.ConnsAccepted.Inc()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// turnAway refuses a connection over the MaxConns limit with one ERR frame,
// which DialV2 reads in place of HELLO. Closing a socket with input unread
// resets it, and the reset can overtake the frame, so it shuts the write side
// first and reads out what the client sent — its magic, at least — until the
// client hangs up or a second has passed.
func (s *Server) turnAway(conn tcp.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	deadline := time.Now().Add(time.Second)
	conn.SetWriteDeadline(deadline)
	if writeFrame(conn, frameErr, []byte("server full")) != nil {
		return
	}
	if hc, ok := conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		conn.SetReadDeadline(deadline)
		io.CopyN(io.Discard, conn, frameBufKeep)
	}
}

// serveConn serves one connection: it must open with protocolMagic, or it
// is dropped.
func (s *Server) serveConn(conn tcp.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		// A draining Shutdown waits on s.drained; the teardown of the last
		// connection signals it so shutdown returns immediately instead of
		// discovering the empty table on a poll tick.
		if len(s.conns) == 0 && s.drained != nil {
			close(s.drained)
			s.drained = nil
		}
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64*1024)
	s.setReadDeadline(conn)
	var magic [len(protocolMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != protocolMagic {
		return
	}
	s.serve(conn, r)
}

// setReadDeadline arms the idle timeout before a blocking read.
func (s *Server) setReadDeadline(conn tcp.Conn) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}

// setWriteDeadline arms the write timeout before a response write.
func (s *Server) setWriteDeadline(conn tcp.Conn) {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// --- the request path: one executor under the frame codec -----------------

// verb is what a request asks for: the frame type, less the framing.
type verb uint8

const (
	verbEvents  verb = iota // EVENTS frame
	verbQuery               // QUERY frame
	verbQueryAt             // QUERY@ frame
	verbTenant
	verbStats
	verbQuit
	verbUnknown // no such frame type; err says which
)

// request is one decoded frame. err is the codec's refusal (a malformed
// payload, an oversized batch, an unknown frame type); execute still sees the
// request, so refusals are counted and timed where everything else is.
type request struct {
	verb        verb
	batch       *[]model.Event // verbEvents: the decoded events, pooled (see submitReq)
	queries     []Query
	results     []QueryResult // where the answers go: the connection's buffer, nil for a fresh slice
	cutoff      uint64        // verbQueryAt
	tenant      string        // verbTenant
	err         error
	decodeStart time.Time // zero on an uninstrumented server
}

// reply is what execute hands back for the codec to render.
type reply struct {
	acked   int        // events acknowledged (0 for TENANT) once pending yields nil
	pending chan error // non-nil: the batch is queued; its outcome arrives here
	results []QueryResult
	stats   string
	err     error
	quit    bool
}

// now reads the clock on an instrumented server only.
func (s *Server) now() time.Time {
	if s.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

// refuse counts a protocol error and replies with it.
func (s *Server) refuse(err error) reply {
	s.counters.ProtocolErrors.Inc()
	return reply{err: err}
}

// execute runs one request against the connection's tenant scope cur and
// returns the reply and the scope the connection continues in. Together
// with the ingest goroutine it hands event batches to, it is the only code
// that touches a tenant's collector, live query plane or history provider
// on behalf of the network, and it owns every instrument and counter of the
// exchange; the codec around it only translates.
func (s *Server) execute(cur *Tenant, req *request) (reply, *Tenant) {
	o := s.obs
	var decodeDur time.Duration
	if o != nil && req.verb <= verbQueryAt {
		decodeDur = time.Since(req.decodeStart)
		o.DecodeFrame.Observe(decodeDur)
	}
	if req.err != nil {
		return s.refuse(req.err), cur
	}
	switch req.verb {
	case verbEvents:
		// The trace (nil unless sampled, on which every call below is a
		// no-op) roots at decode start, so its total covers
		// decode → queue → submit (ack).
		n := len(*req.batch)
		tr := o.StartTrace(obs.OpIngest, cur.name, n, req.decodeStart)
		tr.Span("decode", -1, -1, req.decodeStart, decodeDur)
		qspan := tr.Begin("queue", -1, -1)
		// The outcome channel goes back to ackWaits from whoever receives it.
		done := ackWaits.Get().(chan error)
		s.submitQ <- submitReq{tenant: cur, batch: req.batch, done: done, tr: tr, qspan: qspan} // blocks when full: backpressure
		return reply{acked: n, pending: done}, cur
	case verbQuery, verbQueryAt:
		return s.answer(cur, req), cur
	case verbTenant:
		t, err := s.Tenant(req.tenant)
		if err != nil {
			return s.refuse(err), cur
		}
		return reply{}, t
	case verbStats:
		return reply{stats: s.statsBody(cur)}, cur
	default: // verbQuit: a verbUnknown request always carries its err
		return reply{quit: true}, cur
	}
}

// answer runs one query batch: against the live store, or (QUERY@) against
// the history provider's view as of req.cutoff. The two differ only in
// where the *Queries comes from and which histogram and op kind record it.
func (s *Server) answer(t *Tenant, req *request) reply {
	view, kind := t.monitor.Queries, obs.OpQuery
	var err error
	var start time.Time
	if req.verb == verbQuery {
		// An acknowledged event must be queryable: wait out any stamps still
		// in flight in the ingest shards before answering
		// [barrier-counts-planned].
		t.monitor.IngestBarrier()
		start = s.now()
	} else if t.history == nil {
		return s.refuse(errors.New("monitor: no replay plane attached"))
	} else {
		// No ingest barrier here: the cutoff names durable history, not
		// "everything acknowledged". The provider may itself wait for the
		// lanes to publish events the log already holds
		// [cover-wait-bounded]; nothing on this path stalls ingest.
		kind, start = obs.OpReplay, s.now()
		view, err = t.history.HistoryAt(req.cutoff)
	}
	var res []QueryResult
	if err == nil {
		res = view.queryBatchInto(req.queries, req.results)
	}
	if o := s.obs; o != nil {
		hist := o.QueryBatch
		if kind == obs.OpReplay {
			hist = o.ReplayQuery
		}
		d := time.Since(start)
		hist.Observe(d)
		o.RecordOp(kind, t.name, len(req.queries), start, d, err, nil)
	}
	if err != nil {
		return reply{err: err}
	}
	s.counters.QueryFrames.Inc()
	s.counters.QueriesAnswered.Add(int64(len(res)))
	t.queries.Add(int64(len(res)))
	return reply{results: res}
}

// statsBody renders the shared STATS payload for one tenant scope: monitor
// accounting, collector backlog, the throughput counters with their rates
// since start, the ingest shard layout with per-shard event tallies, and —
// when a write-ahead journal is attached — the journal's durability
// counters. The monitor accounting, backlog, shard tallies and journal
// counters are the scoped tenant's; the throughput counters and rates are
// server-wide. Every field is key=value; tenant=<name> is the one value
// that is not a number, and the per-tenant fields carry a label in the key.
func (s *Server) statsBody(t *Tenant) string {
	st := t.monitor.Stats(s.cfg.FixedVector)
	body := fmt.Sprintf("events=%d crs=%d clusters=%d held=%d storage=%d %s events_per_sec=%.0f queries_per_sec=%.0f tenant=%s tenants=%d",
		st.Events, st.ClusterReceives, st.LiveClusters, t.collector.Held(), st.StorageInts,
		s.Counters(), s.perSec(s.counters.EventsIngested), s.perSec(s.counters.QueriesAnswered), t.name, s.NumTenants())
	pipe := t.monitor.Pipeline()
	body += fmt.Sprintf(" shards=%d xwaits=%d", pipe.IngestShards(), pipe.CrossShardWaits())
	for i, n := range pipe.ShardEventsInto(nil) {
		body += fmt.Sprintf(" shard%d=%d", i, n)
	}
	// Per-tenant throughput in the labeled-field dialect, mirroring the
	// tenant="..." series on /metrics.
	for _, tt := range s.Tenants() {
		body += fmt.Sprintf(" tenant_events{tenant=%q}=%d tenant_queries{tenant=%q}=%d",
			tt.name, tt.accepted.Load(), tt.name, tt.queries.Load())
	}
	if t.journal != nil {
		body += " " + t.journal.Stats()
	}
	return body
}

// --- the frame codec (payload encodings in protocol.go) -------------------

// outItem is one response in a connection's ordered output stream: either a
// ready frame, or a pending ingest acknowledgement the writer resolves when
// the batch clears the submit queue.
type outItem struct {
	typ     byte
	payload *[]byte    // from replyBufs; connWriter hands it back once written
	wait    chan error // non-nil: resolve to ACK(n) or ERR before writing
	n       int        // batch size acknowledged on success
}

// frameBufKeep is the largest payload buffer a connection keeps between
// frames: sixty 1024-event frames' worth.
const frameBufKeep = 1 << 20

// batchKeep is the most records a kept batch buffer holds: as many full
// records (17 bytes on the wire, 20 to 24 in memory) as fill frameBufKeep.
const batchKeep = frameBufKeep / eventRecFull

// The request path allocates nothing per frame in the steady state (DESIGN.md
// §7): what one frame needs past its turn on the connection comes from these
// pools and goes back when its last user is done with it.
var (
	// eventBatches holds the buffers EVENTS frames decode into. A batch rides
	// the submit queue; the ingest goroutine hands it back once it has sent
	// the batch's outcome. A refused frame's batch is not recycled.
	eventBatches = slicePool[model.Event]{keep: batchKeep}
	// replyBufs holds the payloads of the frames a connection writes; the
	// connection's writer hands each back once it has written it.
	replyBufs = slicePool[byte]{keep: frameBufKeep}
	// ackWaits holds the channels a queued batch's outcome arrives on; the
	// one who receives the outcome hands the channel back.
	ackWaits = sync.Pool{New: func() any { return make(chan error, 1) }}
)

// slicePool recycles slices by pointer, so handing one back stores no new
// interface value. A slice that grew past keep elements is dropped instead,
// as a connection drops an outsized frame buffer.
type slicePool[T any] struct {
	pool sync.Pool
	keep int
}

func (p *slicePool[T]) get() *[]T {
	if b, ok := p.pool.Get().(*[]T); ok {
		return b
	}
	return new([]T)
}

func (p *slicePool[T]) put(b *[]T) {
	if cap(*b) <= p.keep {
		*b = (*b)[:0]
		p.pool.Put(b)
	}
}

// frameConn is what one connection owns between frames: the buffer a frame
// is read into, and the query batch decoded from it with its answers. The
// connection is done with all three before it reads the next frame — the
// payload is decoded, the answers encoded into a RESULTS payload of their own
// — so one set serves every frame. Each grows to the largest frame seen, up to
// frameBufKeep bytes or batchKeep records; a buffer a larger frame needed is
// dropped after it, so one outsized frame cannot pin the framing cap's 16 MiB
// to an idle connection. An event batch outlives its frame on the submit
// queue, so it comes from eventBatches instead.
type frameConn struct {
	fbuf    []byte
	queries []Query
	results []QueryResult
}

// adopt returns what a connection keeps after a frame: used when the frame
// grew the buffer kept and not past limit, kept otherwise.
func adopt[T any](kept, used []T, limit int) []T {
	if cap(used) > cap(kept) && cap(used) <= limit {
		return used
	}
	return kept
}

func (s *Server) serve(conn tcp.Conn, r *bufio.Reader) {
	out := make(chan outItem, 64)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		s.connWriter(conn, out)
	}()
	defer func() {
		close(out)
		wwg.Wait()
	}()

	// HELLO announces the default tenant's process count; a later TENANT
	// selection may scope the connection to a namespace with a different
	// one (the field is informational — batches are validated per event).
	hello := replyBufs.get()
	*hello = encodeHelloPayload(*hello, protocolV2Version, s.def.monitor.NumProcs(), s.cfg.MaxBatch)
	out <- outItem{typ: frameHello, payload: hello}
	cur := s.def // the connection's tenant scope; TENANT frames reselect it
	var fc frameConn
	for {
		s.setReadDeadline(conn)
		typ, payload, err := readFrameInto(r, fc.fbuf)
		fc.fbuf = adopt(fc.fbuf, payload, frameBufKeep)
		if err != nil {
			// A framing error (an oversized length prefix) loses the stream
			// offset: report it and drop the connection. EOF, a reset, an
			// expired deadline or a closed connection just ends the session.
			var tooLarge frameTooLarge
			if errors.As(err, &tooLarge) {
				out <- replyFrame(verbUnknown, s.refuse(err))
			}
			return
		}
		s.counters.FramesRead.Inc()
		item, next, quit := s.serveFrame(&fc, cur, typ, payload)
		out <- item
		if quit {
			return
		}
		cur = next
	}
}

// serveFrame runs one frame through the request path against the scope cur —
// decode, execute, render — keeping what the query buffers grew to, and
// returns the reply's place in the output stream, the scope the connection
// continues in, and whether the frame ended the session.
func (s *Server) serveFrame(fc *frameConn, cur *Tenant, typ byte, payload []byte) (outItem, *Tenant, bool) {
	req := s.decodeFrame(fc, typ, payload)
	rep, cur := s.execute(cur, &req)
	item := replyFrame(req.verb, rep)
	fc.queries = adopt(fc.queries, req.queries, batchKeep)
	fc.results = adopt(fc.results, rep.results, batchKeep)
	return item, cur, rep.quit
}

// decodeFrame turns one frame into a request: an EVENTS batch into a buffer
// from eventBatches, a QUERY or QUERY@ batch into fc's, answered into fc's.
func (s *Server) decodeFrame(fc *frameConn, typ byte, payload []byte) request {
	req := request{decodeStart: s.now()}
	switch typ {
	case frameEvents:
		req.verb, req.batch = verbEvents, eventBatches.get()
		*req.batch, req.err = decodeEventsPayload(*req.batch, payload, s.cfg.MaxBatch)
	case frameQuery:
		req.verb, req.results = verbQuery, fc.results
		req.queries, req.err = decodeQueryPayload(fc.queries, payload, s.cfg.MaxBatch)
	case frameQueryAt:
		req.verb, req.results = verbQueryAt, fc.results
		req.cutoff, req.queries, req.err = decodeQueryAtPayload(fc.queries, payload, s.cfg.MaxBatch)
	case frameTenant:
		req.verb, req.tenant = verbTenant, string(payload)
	case frameStats:
		req.verb = verbStats
	case frameQuit:
		req.verb = verbQuit
	default:
		req.verb, req.err = verbUnknown, fmt.Errorf("monitor: unknown frame type 0x%02x", typ)
	}
	return req
}

// replyFrame renders a reply as its place in the connection's output stream,
// its payload encoded into a buffer from replyBufs.
func replyFrame(v verb, rep reply) outItem {
	if rep.err == nil && rep.pending != nil {
		return outItem{wait: rep.pending, n: rep.acked}
	}
	b := replyBufs.get()
	item := outItem{typ: frameAck, payload: b}
	switch {
	case rep.err != nil:
		item.typ, *b = frameErr, append(*b, rep.err.Error()...)
	case v == verbQuery || v == verbQueryAt:
		item.typ, *b = frameResults, encodeResultsPayload(*b, rep.results)
	case v == verbStats:
		item.typ, *b = frameStatsR, append(*b, rep.stats...)
	case v == verbQuit:
		item.typ = frameBye
	default:
		// EVENTS, once resolved: ACK(n). TENANT: ACK(0) — the selection
		// carries no events; reusing the acknowledgement frame keeps the reply
		// alphabet unchanged for pre-tenant clients and the fuzz harness.
		*b = encodeAckPayload(*b, rep.acked)
	}
	return item
}

// resolve waits out a pending acknowledgement and renders the batch's outcome
// as its frame, ACK(n) or ERR, handing the channel back to ackWaits; any other
// item is ready as it is.
func resolve(item outItem) outItem {
	if item.wait == nil {
		return item
	}
	err := <-item.wait
	ackWaits.Put(item.wait)
	return replyFrame(verbEvents, reply{acked: item.n, err: err})
}

// connWriter drains a connection's output stream in order, resolving
// pending ingest acknowledgements as their batches clear the queue. It
// flushes when the stream momentarily empties, so back-to-back responses
// share syscalls. A write failure, a peer that stopped reading past
// WriteTimeout among them, closes the connection, which ends the session's
// reads too; the writer keeps draining (acknowledgement channels must still
// be consumed and buffers handed back) without writing.
func (s *Server) connWriter(conn tcp.Conn, out <-chan outItem) {
	w := bufio.NewWriterSize(conn, 64*1024)
	var err error // the first write failure
	for item := range out {
		item = resolve(item)
		if err == nil {
			s.setWriteDeadline(conn)
			if err = writeFrame(w, item.typ, *item.payload); err == nil && len(out) == 0 {
				err = w.Flush()
			}
			if err != nil {
				conn.Close()
			}
		}
		replyBufs.put(item.payload)
	}
	if err == nil {
		w.Flush()
	}
}

// Shutdown drains gracefully: it stops accepting, then waits up to grace
// for the remaining connections to finish their sessions (clients QUIT)
// before forcing them closed via Close. In-flight batches are ingested
// either way; the returned error reports events stranded in the collector.
//
// The wait is event-driven: the teardown of the last live connection
// signals the drain channel, so Shutdown returns the moment the server is
// idle instead of on the next tick of a poll loop. grace <= 0 skips the
// wait entirely (immediate forced close, as before).
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ln := s.listener
	var drained chan struct{}
	if grace > 0 && len(s.conns) > 0 {
		drained = make(chan struct{})
		s.drained = drained
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // stop accepting; acceptLoop exits
	}
	if drained != nil {
		timer := time.NewTimer(grace)
		select {
		case <-drained:
		case <-timer.C:
			// Grace expired with connections still live; Close forces them.
			// Their teardowns may still close s.drained afterwards — that is
			// harmless, nobody waits on it anymore and it is nil'd under mu.
		}
		timer.Stop()
	}
	return s.Close()
}

// Close stops the listener, closes all connections, waits for the serving
// goroutines, and drains the ingest queue; then every tenant's pipeline is
// barriered and its collector closed (and, where its TenantResources.Close
// is set, its resources released). Buffered events stranded in any
// collector are reported as an error.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	close(s.submitQ) // connections are gone; the worker drains and exits
	s.ingestWG.Wait()
	var errs []error
	for _, t := range s.Tenants() {
		errs = append(errs, t.close()...)
	}
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}
