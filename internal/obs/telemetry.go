package obs

import (
	"log/slog"
	"strconv"
	"time"
)

// Op kinds recorded by the monitor plane.
const (
	OpIngest      = "ingest"       // one event batch through Collector.SubmitBatch
	OpQuery       = "query"        // one query batch through Monitor.QueryBatch
	OpWALSnapshot = "wal_snapshot" // one WAL compaction
	OpReplay      = "replay"       // one QUERY@ batch answered from sealed history
)

// DefaultTraceCap is the default TraceRing capacity: enough to answer "the
// slowest 50 batches" with plenty of recency behind it.
const DefaultTraceCap = 512

// Telemetry bundles the monitor plane's instruments: one latency histogram
// per hot path, a size histogram for delivered runs, and the op-trace ring.
// A single Telemetry serves at most one Server (instrument names are
// registered once). All fields are safe to use when nil — a nil *Telemetry
// disables instrumentation without branching at call sites that only touch
// histograms, and Server/wal code guards the few spots that also take
// timestamps.
type Telemetry struct {
	Registry *Registry

	IngestBatch    *Histogram // SubmitBatch end to end (validate, drain, journal, deliver)
	DeliverBatch   *Histogram // dispatch of one delivered run into the ingest pipeline
	QueryBatch     *Histogram // Monitor.QueryBatch of one QUERY frame
	DecodeFrame    *Histogram // decode of one EVENTS, QUERY or QUERY@ payload
	WALAppend      *Histogram // wal.Log.Append end to end
	WALFsync       *Histogram // the fsync syscall inside a group commit
	WALSnapshot    *Histogram // one snapshot compaction
	RunEvents      *Histogram // events per delivered run (size histogram)
	CrossShardWait *Histogram // time an ingest shard blocked on a cross-shard rendezvous
	PlanQueueDepth *Histogram // plan-queue depth (batches) observed at each async enqueue

	ReplayOpen        *Histogram // opening/refreshing a WAL chain for replay
	ReplayMaterialize *Histogram // materializing a replay view at a cutoff
	ReplayQuery       *Histogram // answering one QUERY@ batch from a replay view

	HistoryViews         *Counter // views materialized by the history plane (cache misses)
	HistoryCountedEvents *Counter // recorded events the count walk decoded to find cutoff watermarks
	HistoryCoverWaits    *Counter // views that waited for the lanes to publish what the log already held

	Ops *TraceRing

	// Traces retains sampled span traces per tenant; Sampler decides which
	// batches get one (head sampling at a bounded rate, boosted after slow
	// ops). Both are nil-safe: with either nil, StartTrace returns nil and
	// the pipeline runs untraced.
	Traces  *TraceStore
	Sampler *Sampler

	// SlowOp, when positive, logs any recorded op at least this slow to
	// Logger at Warn level, tail-captures it as a trace even when head
	// sampling passed it by, and boosts the sampler around the incident.
	SlowOp time.Duration
	Logger *slog.Logger
}

// NewTelemetry creates the monitor plane's instrument set on reg, using the
// daemon's canonical metric names.
func NewTelemetry(reg *Registry) *Telemetry {
	return &Telemetry{
		Registry:       reg,
		IngestBatch:    reg.newHistogram("poetd_ingest_batch_seconds", "Latency of one event batch through the collector (validate, drain, journal, deliver)."),
		DeliverBatch:   reg.newHistogram("poetd_deliver_batch_seconds", "Latency of dispatching one delivered run into the ingest pipeline."),
		QueryBatch:     reg.newHistogram("poetd_query_batch_seconds", "Latency of one precedence query batch."),
		DecodeFrame:    reg.newHistogram("poetd_decode_frame_seconds", "Latency of decoding one frame payload."),
		WALAppend:      reg.newHistogram("poetd_wal_append_seconds", "Latency of one write-ahead log append (to the configured fsync policy)."),
		WALFsync:       reg.newHistogram("poetd_wal_fsync_seconds", "Latency of one WAL fsync syscall."),
		WALSnapshot:    reg.newHistogram("poetd_wal_snapshot_seconds", "Latency of one WAL snapshot compaction."),
		RunEvents:      reg.newSizeHistogram("poetd_run_events", "Events per run delivered to the monitor."),
		CrossShardWait: reg.newHistogram("poetd_cross_shard_wait_seconds", "Time an ingest shard spent blocked at a cross-shard rendezvous (receive waiting for its send's clock)."),
		PlanQueueDepth: reg.newSizeHistogram("poetd_plan_queue_depth", "Plan-queue depth in batches, observed as each asynchronous batch is accepted."),

		ReplayOpen:        reg.newHistogram("poetd_replay_open_seconds", "Latency of opening or refreshing the WAL chain behind the replay plane."),
		ReplayMaterialize: reg.newHistogram("poetd_replay_materialize_seconds", "Latency of materializing a history view at a cutoff (chain scan + counting, or restamping offline)."),
		ReplayQuery:       reg.newHistogram("poetd_replay_query_seconds", "Latency of one QUERY@ batch answered from sealed history."),

		HistoryViews:         reg.NewCounter("poetd_history_views_total", "History views materialized at a cutoff (view-cache misses)."),
		HistoryCountedEvents: reg.NewCounter("poetd_history_counted_events_total", "Recorded events decoded by the count walk that finds a cutoff's watermark."),
		HistoryCoverWaits:    reg.NewCounter("poetd_history_cover_waits_total", "History views that waited for the stamping lanes to publish events the log already held."),

		Ops: newTraceRing(DefaultTraceCap),

		Traces:  newTraceStore(DefaultTraceStoreCap),
		Sampler: NewSampler(DefaultTraceRate),
	}
}

// StartTrace consults the sampling policy and, for sampled batches, starts
// a span trace rooted at start. The usual nil return means "not sampled";
// every span method on a nil *Trace is a no-op, so callers thread the
// result unconditionally. Safe on a nil receiver.
func (t *Telemetry) StartTrace(kind, tenant string, size int, start time.Time) *Trace {
	if t == nil || t.Traces == nil || !t.Sampler.Sample(start) {
		return nil
	}
	return NewTrace(kind, tenant, size, start)
}

// RecordOp traces one finished operation, attributed to tenant. tr is the
// batch's span trace (nil when unsampled): it is finished, retained in the
// per-tenant store, and its ID linked from the op ring. An op at least
// SlowOp slow is logged at Warn, boosts the sampler, and — when head
// sampling missed it — is tail-captured as a root-only trace so every slow
// batch is inspectable at /tracez. Tail-sampled slow ops additionally emit
// one structured wide-event line with the full stage breakdown. Safe on a
// nil receiver.
func (t *Telemetry) RecordOp(kind, tenant string, size int, start time.Time, d time.Duration, err error, tr *Trace) {
	if t == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	slow := t.SlowOp > 0 && d >= t.SlowOp
	if slow && tr == nil && t.Traces != nil {
		// Tail capture: the batch was not head-sampled, but it was slow —
		// retain a root-only trace so the op still resolves at /tracez.
		tr = NewTrace(kind, tenant, size, start)
	}
	if tr != nil {
		tr.Finish(err)
		t.Traces.Add(tr)
	}
	t.Ops.record(Op{Kind: kind, Tenant: tenant, Size: size, Start: start, Duration: d, Err: msg, Trace: tr.ID()})
	if slow {
		t.Sampler.boost(start.Add(d))
		if t.Logger != nil {
			t.Logger.Warn("slow op", "kind", kind, "tenant", tenant, "size", size,
				"duration", d, "trace_id", uint64(tr.ID()), "err", msg)
			t.logWideEvent(tr)
		}
	}
}

// logWideEvent emits one structured line carrying the whole trace — the
// "wide event" form for tail-sampled batches: everything a log pipeline
// needs to aggregate slow-batch causes without scraping /tracez.
func (t *Telemetry) logWideEvent(tr *Trace) {
	if tr == nil || t.Logger == nil {
		return
	}
	snap := tr.Snapshot()
	attrs := make([]any, 0, 2*(6+len(snap.Spans)))
	attrs = append(attrs,
		"trace_id", uint64(snap.ID),
		"tenant", snap.Tenant,
		"kind", snap.Kind,
		"size", snap.Size,
		"duration", snap.Duration,
		"self", snap.Self,
	)
	for _, sp := range snap.Spans {
		key := "span_" + sp.Name
		if sp.Lane >= 0 {
			key += "_l" + strconv.Itoa(sp.Lane)
		}
		attrs = append(attrs, key, sp.Dur)
	}
	t.Logger.Warn("slow batch trace", attrs...)
}
