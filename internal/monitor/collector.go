package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/obs"
)

// Validation errors returned by the collector when an instrumentation stream
// is corrupt: the delivery-contract sentinels of package model, re-exported
// (the same values, so errors.Is matches across packages). Every rejection
// leaves the collector's bookkeeping, and the pipeline's admission state,
// exactly as it was before the offending record.
var (
	ErrBadPartner      = model.ErrDeliverBadPartner
	ErrSelfSync        = model.ErrDeliverSelfSync
	ErrSyncMismatch    = model.ErrDeliverSyncMismatch
	ErrReceiveMismatch = model.ErrDeliverReceiveMismatch
)

// RunJournal persists each deliverable run before it is handed to the
// monitor, making ingestion write-ahead durable. AppendRun must have made
// the run durable (to the configured fsync policy) when it returns; Stats
// renders the journal's counters for the server's STATS surface.
// internal/wal.Log is the production implementation.
type RunJournal interface {
	AppendRun(events []model.Event) error
	Stats() string
}

// Collector feeds a Monitor from concurrently-producing processes. Each
// instrumented process reports its own events in order, but the interleaving
// across processes is arbitrary: a receive's record may arrive at the
// collector before the matching send's record (the network offers no global
// ordering). The collector buffers such events and releases them to the
// monitor as soon as they become deliverable:
//
//   - an event is held until it is the next event of its process;
//   - a receive is additionally held until its matching send has been
//     delivered;
//   - a synchronous event is held until its partner is also at the front of
//     its own process, whereupon both halves are delivered back to back.
//
// The collector keeps no delivery-contract state of its own. What is
// deliverable is read from the pipeline's admission state (hct.Admission: the
// per-process frontier, the in-flight sends and their targets), each event is
// admitted there as it joins the run, and the admission lock is held for the
// length of a SubmitBatch: admit → journal → enqueue happen under one lock,
// so admission order is journal order is plan order, and the log holds
// nothing the store will not plan. A collector over a recovered or hand-fed
// monitor resumes where that state stands, because it is reading the one
// state, not a copy of it.
//
// Submit and SubmitBatch may be called from many goroutines. Deliverable
// events are handed to the monitor as one run per call — the planner's
// lock is taken once per run, not once per event — which is what
// makes batched network ingestion fast. When a journal is attached, each
// run is appended to it before delivery, so the durable log is always a
// run-atomic prefix of the monitor's state. Close drains the stream and
// reports any stranded events (which indicate a corrupt or incomplete
// computation).
type Collector struct {
	m   *Monitor
	adm *hct.Admission // m's admission state; its lock is taken after mu

	mu      sync.Mutex
	closed  bool
	pending []map[model.EventIndex]model.Event // per process: arrived, undelivered
	held    int
	run     []model.Event // deliverable run being assembled (reused)
	journal RunJournal    // optional write-ahead journal
	// journalErr is the journal failure that closed the collector, if one
	// did; the server's readiness and /statusz report it.
	journalErr error

	// pipelined selects asynchronous delivery: SubmitBatch returns once the
	// run is with the plan stage, without waiting for the stamps to
	// publish, overlapping the next run's assembly (and journal append)
	// with the current run's vector math. The journal ordering contract is
	// unchanged — AppendRun still completes before the run is dispatched,
	// so the durable log remains a run-atomic prefix of what the pipeline
	// has accepted. Callers that need read-your-writes (the server's query
	// surfaces) issue Monitor.IngestBarrier first.
	pipelined bool

	// Optional telemetry (set by the server when instrumented): latency of
	// the monitor delivery inside each flush, and the delivered run sizes.
	deliverHist *obs.Histogram
	runHist     *obs.Histogram

	// spans, when set, is shared with this collector's write-ahead journal
	// (wal.Options.Spans): flush installs the current run's trace there so
	// the WAL can record append/fsync spans without an API change to
	// RunJournal. The collector's mutex serializes Set/Clear around the
	// append.
	spans *obs.SpanScope

	// syncWaiters maps a claimed sync-partner ID to the process whose front
	// sync is blocked waiting for it. When the claimed event reaches the
	// front of its own process, the waiter is requeued so a non-reciprocal
	// pairing is detected from the claimant's side too (otherwise a stale
	// claim on a busy partner would strand silently until Close).
	syncWaiters map[model.EventID]int

	// Scratch buffers reused across SubmitBatch calls (guarded by mu), so
	// a batch does not allocate per call.
	touched []int  // processes touched by the current batch
	seen    []bool // per process: already in touched
	work    []int  // drain work queue
	inWork  []bool // per process: queued in work
}

// NewCollector wraps a monitor for out-of-order ingestion. A collector built
// over a monitor reconstructed from a write-ahead log accepts the stream
// exactly where the recovered state left off.
func NewCollector(m *Monitor) *Collector {
	n := m.NumProcs()
	pending := make([]map[model.EventIndex]model.Event, n)
	for i := range pending {
		pending[i] = make(map[model.EventIndex]model.Event)
	}
	return &Collector{
		m:           m,
		adm:         m.pipe.Admission(),
		pending:     pending,
		syncWaiters: make(map[model.EventID]int),
		seen:        make([]bool, n),
		inWork:      make([]bool, n),
	}
}

// Submit accepts one event record from a process's instrumentation and
// delivers every event that became deliverable as a result.
func (c *Collector) Submit(e model.Event) error {
	batch := [1]model.Event{e}
	_, err := c.SubmitBatch(batch[:])
	return err
}

// SubmitBatch accepts a batch of event records — the payload of one EVENTS
// frame — and delivers everything that became deliverable as one run. The
// records may be from any mix of processes and in any order. On a bad
// record the batch's prefix stays applied and the error names the offender;
// already-deliverable events are still delivered. The returned count is the
// number of records accepted into the collector (the applied prefix), which
// callers must account even when err is non-nil.
func (c *Collector) SubmitBatch(events []model.Event) (accepted int, err error) {
	return c.SubmitBatchTraced(events, nil)
}

// SubmitBatchTraced is SubmitBatch carrying the batch's span trace (nil for
// unsampled batches, which is the hot path and costs only nil checks). The
// collector records the validate span (insert, enablement drain, admission);
// flush scopes the WAL append and threads the trace into the delivery
// pipeline.
func (c *Collector) SubmitBatchTraced(events []model.Event, tr *obs.Trace) (accepted int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.adm.Lock()
	vs := tr.Begin("validate", -1, -1)
	var firstErr error
	touched := c.touched[:0]
	for i, e := range events {
		if err := c.insert(e); err != nil {
			if len(events) == 1 {
				firstErr = err
			} else {
				firstErr = fmt.Errorf("batch record %d: %w", i, err)
			}
			break
		}
		accepted++
		p := int(e.ID.Process)
		if !c.seen[p] {
			c.seen[p] = true
			touched = append(touched, p)
		}
	}
	for _, p := range touched {
		c.seen[p] = false
	}
	if err := c.drain(touched); err != nil && firstErr == nil {
		firstErr = err
	}
	c.touched = touched[:0] // retain any growth for the next batch
	tr.End(vs)
	if err := c.flush(tr); err != nil && firstErr == nil {
		firstErr = err
	}
	c.adm.Unlock()
	if !c.pipelined {
		c.m.IngestBarrier()
	}
	return accepted, firstErr
}

// insert validates one record and buffers it as pending. The process range
// is checked here first, in the text clients have always been sent, because
// it guards the lookups that follow; the rest of the record check is the
// admission gate's.
func (c *Collector) insert(e model.Event) error {
	p := int(e.ID.Process)
	if p < 0 || p >= len(c.pending) {
		return fmt.Errorf("monitor: event %v: process out of range", e.ID)
	}
	if c.delivered(e.ID) {
		return fmt.Errorf("monitor: event %v already delivered", e.ID)
	}
	if _, dup := c.pending[p][e.ID.Index]; dup {
		return fmt.Errorf("monitor: duplicate submission of %v", e.ID)
	}
	if err := c.adm.CheckRecord(e); err != nil {
		return err
	}
	c.pending[p][e.ID.Index] = e
	c.held++
	return nil
}

// delivered reports whether the event with the given ID has been delivered.
func (c *Collector) delivered(id model.EventID) bool {
	return id.Index < c.adm.Next(int(id.Process))
}

// front returns the front event of process p, if it has arrived.
func (c *Collector) front(p int) (model.Event, bool) {
	e, ok := c.pending[p][c.adm.Next(p)]
	return e, ok
}

// drain repeatedly appends deliverable front events to the current run,
// starting from the given processes and following the enablement edges (a
// delivered send may unblock its receiver; a delivered event always may
// unblock its own process's next). On a validation error the offending
// events stay pending and everything delivered so far remains in the run.
func (c *Collector) drain(start []int) error {
	work := c.work[:0]
	for _, p := range start {
		if !c.inWork[p] {
			c.inWork[p] = true
			work = append(work, p)
		}
	}
	var err error
	head := 0
scan:
	for head < len(work) {
		p := work[head]
		head++
		c.inWork[p] = false

	inner:
		for {
			e, ok := c.front(p)
			if !ok {
				break inner
			}
			// A sync elsewhere may be blocked waiting on this event; now
			// that it is front, rescan the waiter so its pairing claim is
			// validated (and rejected if non-reciprocal).
			if w, waited := c.syncWaiters[e.ID]; waited {
				delete(c.syncWaiters, e.ID)
				if !c.inWork[w] {
					c.inWork[w] = true
					work = append(work, w)
				}
			}
			switch e.Kind {
			case model.Unary:
				if err = c.deliver(e); err != nil {
					break scan
				}
			case model.Send:
				if err = c.deliver(e); err != nil {
					break scan
				}
				// The matching receive's process may now be unblocked.
				q := int(e.Partner.Process)
				if !c.inWork[q] {
					c.inWork[q] = true
					work = append(work, q)
				}
			case model.Receive:
				// Blocked until the send is delivered; the send's delivery
				// requeues this process.
				if !c.delivered(e.Partner) {
					break inner
				}
				if target, ok := c.adm.SendTarget(e.Partner); !ok || target != e.ID {
					err = fmt.Errorf("monitor: receive %v claims send %v: %w", e.ID, e.Partner, ErrReceiveMismatch)
					break scan
				}
				if err = c.deliver(e); err != nil {
					break scan
				}
			case model.Sync:
				// Deliverable only when the partner half is also at the
				// front of its process; both halves then go back to back.
				if c.delivered(e.Partner) {
					// The claimed half was already delivered as something
					// else; this pairing can never complete.
					err = fmt.Errorf("monitor: sync %v claims delivered event %v: %w", e.ID, e.Partner, ErrSyncMismatch)
					break scan
				}
				q := int(e.Partner.Process)
				partner, ok := c.front(q)
				if !ok || partner.ID != e.Partner {
					c.syncWaiters[e.Partner] = p
					break inner
				}
				if partner.Kind != model.Sync || partner.Partner != e.ID {
					err = fmt.Errorf("monitor: sync %v <> %v: %w", e.ID, partner, ErrSyncMismatch)
					break scan
				}
				if err = c.deliver(e); err == nil {
					err = c.deliver(partner)
				}
				if err != nil {
					break scan
				}
				delete(c.syncWaiters, partner.ID) // delivered as the partner half, never scanned as a front
				if !c.inWork[q] {
					c.inWork[q] = true
					work = append(work, q)
				}
			default:
				err = fmt.Errorf("monitor: unknown kind %v for %v", e.Kind, e.ID)
				break scan
			}
		}
	}
	// On early exit, clear the queued marks the loop did not consume.
	for ; head < len(work); head++ {
		c.inWork[work[head]] = false
	}
	c.work = work[:0]
	return err
}

// deliver admits one front event — which advances the process frontier — and
// moves it onto the current run. drain has established everything the gate
// checks about the stream this collector assembled, so a refusal is about
// what it did not: the pipeline was closed, or a direct dispatcher left a
// sync half held. The event then stays pending.
func (c *Collector) deliver(e model.Event) error {
	if err := c.adm.Admit(e); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	delete(c.pending[e.ID.Process], e.ID.Index)
	c.held--
	c.run = append(c.run, e)
	return nil
}

// flush hands the assembled, already admitted run to the plan stage, appending
// it to the write-ahead journal first when one is attached; the caller holds
// the admission lock across both. A journal failure closes the collector: the
// admission frontier is already ahead of the durable log, so no later
// submission could be recovered consistently — fail-stop is the only honest
// behaviour.
func (c *Collector) flush(tr *obs.Trace) error {
	if len(c.run) == 0 {
		return nil
	}
	if c.journal != nil {
		if tr != nil {
			// Hand the trace to the journal for append/fsync spans; the
			// scope is cleared before delivery so the WAL's own background
			// fsyncs never attach to a finished trace.
			c.spans.Set(tr)
		}
		err := c.journal.AppendRun(c.run)
		if tr != nil {
			c.spans.Set(nil)
		}
		if err != nil {
			c.closed = true
			c.journalErr = err
			c.run = c.run[:0]
			return fmt.Errorf("monitor: journal append failed, collector closed: %w", err)
		}
	}
	c.runHist.ObserveValue(int64(len(c.run)))
	var start time.Time
	if c.deliverHist != nil {
		start = time.Now()
	}
	err := c.m.pipe.DispatchAdmitted(c.run, batchTracer(tr))
	if c.deliverHist != nil {
		c.deliverHist.ObserveSince(start)
	}
	c.run = c.run[:0]
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	return nil
}

// journalFailure returns the journal error that closed the collector, or nil.
func (c *Collector) journalFailure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErr
}

// Held returns the number of buffered, undelivered events.
func (c *Collector) Held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// Close marks the stream complete. If events remain buffered the stream was
// inconsistent (e.g. a receive whose send never arrived) and Close returns
// an error naming the stranded events.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	if c.held == 0 {
		return nil
	}
	var stranded []model.EventID
	for p := range c.pending {
		for _, e := range c.pending[p] {
			stranded = append(stranded, e.ID)
		}
	}
	sort.Slice(stranded, func(i, j int) bool {
		if stranded[i].Process != stranded[j].Process {
			return stranded[i].Process < stranded[j].Process
		}
		return stranded[i].Index < stranded[j].Index
	})
	return fmt.Errorf("monitor: %d events stranded at close (first %v)", len(stranded), stranded[0])
}
