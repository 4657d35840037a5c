package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/wal"
)

// The traced run. Each layer's public entry points are called directly with
// the workload's batches, one rung at a time from the wire up to the served
// stack, and a span is recorded around every call (per batch where the API is
// per event). A layer's own cost is its rung minus the rung below. CPU is the
// bench process's getrusage delta, which stays additive where the pipeline
// overlaps stages and wall time does not.

const (
	alwaysAppends = 200                    // -fsync always is timed on this many appends: an fsync each
	queryRounds   = 400                    // in-process and served query batches per rung
	cutEvents     = 32                     // GreatestPredecessors calls per rung
	ackLimitMs    = 50.0                   // rate ladder: ack p99 from due time must stay under this
	ladderShare   = 0.25                   // rate ladder: share of the stream sent at each step
	latenessGrow  = 1.0                    // ms: last quarter's mean lateness above the first's by this means a backlog
	serverQuiesce = 120 * time.Millisecond // let -fsync batch's 50 ms tick write the tail before replay opens the log
)

var ladderSteps = []float64{0.25, 0.5, 0.75, 0.9}

// cost is what one rung took.
type cost struct {
	wall, cpu time.Duration
}

func (c cost) wallNs(events int) float64 { return float64(c.wall.Nanoseconds()) / float64(events) }
func (c cost) cpuUs(events int) float64 {
	return float64(c.cpu.Nanoseconds()) / 1e3 / float64(events)
}

// timed runs fn between two CPU and wall readings, after a collection so one
// rung's garbage is not charged to the next.
func timed(fn func() error) (cost, error) {
	runtime.GC()
	cpu0, t0 := selfCPU(), time.Now()
	err := fn()
	return cost{time.Since(t0), selfCPU() - cpu0}, err
}

// ladder is one traced pass over every rung.
type ladder struct {
	in     *input
	o      runOptions
	rec    *recorder
	dir    string // scratch directory for WAL rungs
	values map[string]float64
	// ordered is the trace in delivery order, cut like the arrival batches:
	// what the stamping engines (which take no out-of-order input) are fed.
	ordered [][]model.Event
}

// runLayers is one traced run: as many ladder passes as fit in o.seconds (at
// least one), each metric the median over passes; the last pass's spans go
// to <outDir>/trace-<workload>.json.
func runLayers(o runOptions) (*runResult, error) {
	in, err := buildInput(o.spec, o.seed, o.sc)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: o.spec.name, Why: o.spec.why, Seed: o.seed, Traced: true, Env: readEnvironment(),
		Events: len(in.arrival), Metrics: make(map[string]summary),
	}
	var ordered [][]model.Event
	for lo := 0; lo < len(in.trace.Events); lo += in.spec.batch {
		ordered = append(ordered, in.trace.Events[lo:min(lo+in.spec.batch, len(in.trace.Events))])
	}
	values := make(map[string][]float64)
	start := time.Now()
	var rec *recorder
	for {
		l := &ladder{in: in, o: o, rec: newRecorder(), values: make(map[string]float64), ordered: ordered,
			dir: filepath.Join(o.workDir, fmt.Sprintf("layers-%d-%d", os.Getpid(), res.Passes))}
		if err := os.MkdirAll(l.dir, 0o755); err != nil {
			return nil, err
		}
		c, err := l.run()
		os.RemoveAll(l.dir)
		if err != nil {
			return nil, err
		}
		rec = l.rec
		res.count(c)
		res.Passes++
		for k, v := range l.values {
			values[k] = append(values[k], v)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(o.log, "ladder pass %d: %.1fs, %d spans\n", res.Passes, elapsed/float64(res.Passes), len(rec.spans))
		if o.sc == scaleTiny || elapsed+elapsed/float64(res.Passes) > o.seconds {
			break
		}
	}
	for _, m := range perLayer {
		xs, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = summarize(m.unit, xs)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(filepath.Join(o.outDir, "trace-"+o.spec.name+".json")); err != nil {
		return nil, err
	}
	res.Correct = res.Wrong == 0 && res.Failed == 0
	return res, nil
}

func (l *ladder) run() (counters, error) {
	var total counters
	l.values["ts_size_ratio"] = tsSizeRatio(l.in.refStorage, l.in.refEvents)
	l.values["loadgen.input_gen_s"] = l.in.genSeconds
	l.values["monitor.collector.held_max"] = float64(l.in.heldMax)
	l.values["monitor.collector.runs"] = float64(l.in.runs)
	l.values["monitor.collector.events_per_run"] = float64(len(l.in.arrival)) / float64(l.in.runs)
	steps := []func() error{l.wireSink, l.fm, l.engine, l.pipeline, l.wal, l.collector, l.queriesIngesting}
	for _, step := range steps {
		if err := step(); err != nil {
			return total, err
		}
	}
	c, err := l.server()
	total.add(c)
	if err != nil {
		return total, err
	}
	c, err = l.daemon()
	total.add(c)
	return total, err
}

// eachBatch records one span per batch around fn, under a span for the rung.
func (l *ladder) eachBatch(layer, name string, batches [][]model.Event, fn func(b int, batch []model.Event) error) (cost, error) {
	return timed(func() error {
		root := l.rec.begin(layer, "rung", -1, -1)
		defer l.rec.end(root)
		for b, batch := range batches {
			id := l.rec.begin(layer, name, b, root)
			err := fn(b, batch)
			l.rec.end(id)
			if err != nil {
				return fmt.Errorf("%s %s batch %d: %w", layer, name, b, err)
			}
		}
		return nil
	})
}

// one times a single call under its own root span.
func (l *ladder) one(layer, name string, fn func() error) (cost, error) {
	return timed(func() error {
		id := l.rec.begin(layer, name, -1, -1)
		defer l.rec.end(id)
		return fn()
	})
}

func (l *ladder) events() int { return len(l.in.arrival) }

// wireSink: ClientV2.ReportBatch against a peer that only acknowledges.
func (l *ladder) wireSink() error {
	s, err := startSink(l.in.procs)
	if err != nil {
		return err
	}
	defer s.close()
	c, err := monitor.DialV2(s.addr())
	if err != nil {
		return err
	}
	cst, err := l.eachBatch("wire-sink", "client.report_batch", l.in.batches, func(_ int, batch []model.Event) error {
		return c.ReportBatch(batch)
	})
	c.Close()
	s.close()
	if err != nil {
		return err
	}
	l.values["wire-sink.cpu_us_per_event"] = cst.cpuUs(l.events())
	l.values["wire-sink.wall_ns_per_event"] = cst.wallNs(l.events())
	l.values["monitor.server.wire_bytes_per_event"] = float64(s.bytes) / float64(l.events())
	l.values["monitor.server.frames"] = float64(s.frames)
	return nil
}

// fm: the Fidge/Mattern baseline every cluster timestamp is projected from.
func (l *ladder) fm() error {
	ts := fm.NewTimestamper(l.in.procs)
	cst, err := l.eachBatch("fm", "observe_borrowed", l.ordered, func(_ int, batch []model.Event) error {
		for _, e := range batch {
			if _, err := ts.ObserveBorrowed(e); err != nil {
				return err
			}
		}
		return nil
	})
	l.values["fm.wall_ns_per_event"] = cst.wallNs(l.events())
	return err
}

// engine: the single-threaded cluster timestamper replay re-stamps with.
func (l *ladder) engine() error {
	ts, err := hct.NewTimestamper(l.in.procs, newConfig())
	if err != nil {
		return err
	}
	cst, err := l.eachBatch("hct.engine", "ingest", l.ordered, func(_ int, batch []model.Event) error {
		for _, e := range batch {
			if err := ts.Ingest(e); err != nil {
				return err
			}
		}
		return nil
	})
	l.values["hct.engine.wall_ns_per_event"] = cst.wallNs(l.events())
	return err
}

// pipeline: planner and lanes, at the workload's shape and single-writer.
func (l *ladder) pipeline() error {
	shapes := []struct {
		layer string
		opt   hct.PipelineOptions
	}{
		{"hct.pipeline", hct.PipelineOptions{Shards: l.in.spec.shards, PlanQueue: l.in.spec.planQueue}},
		{"hct.pipeline.shards1", hct.PipelineOptions{Shards: 1}},
	}
	for _, sh := range shapes {
		p, err := hct.NewPipeline(l.in.procs, newConfig(), sh.opt)
		if err != nil {
			return err
		}
		var barrier time.Duration
		cst, err := l.eachBatch(sh.layer, "dispatch_async", l.ordered, func(b int, batch []model.Event) error {
			if err := p.DispatchAsync(batch, nil); err != nil {
				return err
			}
			if b == len(l.ordered)-1 {
				id := l.rec.begin(sh.layer, "barrier", b, -1)
				t := time.Now()
				p.Barrier()
				barrier = time.Since(t)
				l.rec.end(id)
			}
			return nil
		})
		busy, waits, crs, merges := p.PlannerBusy(), p.CrossShardWaits(), p.ClusterReceives(), p.Merges()
		p.Close()
		if err != nil {
			return err
		}
		if sh.layer != "hct.pipeline" {
			l.values["hct.pipeline.shards1.wall_ns_per_event"] = cst.wallNs(l.events())
			continue
		}
		inDispatch := 0.0
		for _, d := range l.rec.durations(sh.layer, "dispatch_async") {
			inDispatch += d
		}
		l.values["hct.pipeline.cpu_us_per_event"] = cst.cpuUs(l.events())
		l.values["hct.pipeline.wall_ns_per_event"] = cst.wallNs(l.events())
		l.values["hct.pipeline.planner_busy_share"] = busy.Seconds() / cst.wall.Seconds()
		l.values["hct.pipeline.dispatch_wait_share"] = (inDispatch/1e9 - barrier.Seconds()) / cst.wall.Seconds()
		l.values["hct.pipeline.cross_shard_waits"] = float64(waits)
		l.values["hct.pipeline.barrier_wait_ms"] = ms(barrier)
		l.values["hct.pipeline.cluster_receives_per_event"] = float64(crs) / float64(l.events())
		l.values["hct.pipeline.merges"] = float64(merges)
	}
	return nil
}

// wal: Log.AppendRun alone under each fsync policy, then what recovery pays
// to open and read the log back.
func (l *ladder) wal() error {
	for _, policy := range []wal.SyncPolicy{wal.SyncBatch, wal.SyncAlways, wal.SyncNever} {
		layer := "wal." + policy.String()
		dir := filepath.Join(l.dir, layer)
		log, err := wal.Open(dir, wal.Options{NumProcs: l.in.procs, Sync: policy})
		if err != nil {
			return err
		}
		runs := l.ordered
		if policy == wal.SyncAlways {
			runs = runs[:min(alwaysAppends, len(runs))]
		}
		events := 0
		cst, err := l.eachBatch(layer, "append_run", runs, func(_ int, batch []model.Event) error {
			events += len(batch)
			return log.AppendRun(batch)
		})
		snap := log.Counters().Snapshot()
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		switch policy {
		case wal.SyncAlways:
			l.values["wal.always.wall_ns_per_event"] = cst.wallNs(events)
		case wal.SyncNever:
			l.values["wal.never.wall_ns_per_event"] = cst.wallNs(events)
		case wal.SyncBatch:
			appends := l.rec.durations(layer, "append_run")
			l.values["wal.append_cpu_us_per_event"] = cst.cpuUs(events)
			l.values["wal.append_wall_ns_per_event"] = cst.wallNs(events)
			l.values["wal.append_p50_us"] = quantile(appends, 0.5) / 1e3
			l.values["wal.append_p99_us"] = quantile(appends, 0.99) / 1e3
			l.values["wal.bytes_per_event"] = float64(snap.BytesAppended) / float64(events)
			l.values["wal.fsyncs"] = float64(snap.Fsyncs)
		}
	}
	dir := filepath.Join(l.dir, "wal."+wal.SyncBatch.String())
	var log *wal.Log
	open, err := l.one("wal.recover", "open", func() error {
		var err error
		log, err = wal.Open(dir, wal.Options{NumProcs: l.in.procs, Sync: wal.SyncBatch})
		return err
	})
	if err != nil {
		return err
	}
	defer log.Close()
	n := 0
	read, err := l.one("wal.recover", "replay", func() error {
		return log.Replay(func(batch []model.Event) error { n += len(batch); return nil })
	})
	if err != nil {
		return err
	}
	if n != l.events() {
		return fmt.Errorf("wal replay returned %d of %d events", n, l.events())
	}
	l.values["wal.open_recover_s"] = open.wall.Seconds()
	l.values["wal.replay_events_per_s"] = float64(n) / read.wall.Seconds()
	return nil
}

// collector: Collector.SubmitBatch over a Monitor of the workload's shape,
// fed the arrival batches (out of order when the workload lags them).
func (l *ladder) collector() error {
	m, err := monitor.NewWithOptions(l.in.procs, newConfig(), hct.PipelineOptions{Shards: l.in.spec.shards, PlanQueue: l.in.spec.planQueue})
	if err != nil {
		return err
	}
	defer m.Close()
	col := monitor.NewCollector(m)
	cst, err := l.eachBatch("monitor.collector", "submit_batch", l.in.batches, func(_ int, batch []model.Event) error {
		_, err := col.SubmitBatch(batch)
		return err
	})
	if err != nil {
		return err
	}
	l.values["monitor.collector.cpu_us_per_event"] = cst.cpuUs(l.events())
	l.values["monitor.collector.wall_ns_per_event"] = cst.wallNs(l.events())
	return col.Close()
}

// queriesIngesting: Queries.QueryBatch on one goroutine while another feeds
// the collector, the in-process shape of the paced phase.
func (l *ladder) queriesIngesting() error {
	m, err := monitor.NewWithOptions(l.in.procs, newConfig(), hct.PipelineOptions{Shards: l.in.spec.shards, PlanQueue: l.in.spec.planQueue})
	if err != nil {
		return err
	}
	defer m.Close()
	col := monitor.NewCollector(m)
	var acked atomic.Int32
	acked.Store(-1)
	stop, done := make(chan struct{}), make(chan struct{})
	var perQuery []float64
	wrong := 0
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(l.in.seed + 303))
		for {
			k := l.in.eligible(int(acked.Load()))
			select {
			case <-stop:
				// A stream too short to fit a batch beside it gets one after.
				if k == 0 || len(perQuery) > 0 {
					return
				}
			default:
			}
			if k == 0 {
				runtime.Gosched()
				continue
			}
			off, n := window(rng, k, queryBatch)
			id := l.rec.begin("monitor.queries", "query_batch_ingesting", -1, -1)
			t := time.Now()
			res := m.QueryBatch(l.in.pool[off : off+n])
			perQuery = append(perQuery, float64(time.Since(t).Nanoseconds())/float64(n))
			l.rec.end(id)
			for i, r := range res {
				if r.Err != nil || r.True != l.in.want[off+i] {
					wrong++
				}
			}
		}
	}()
	var ferr error
	for b, batch := range l.in.batches {
		if _, ferr = col.SubmitBatch(batch); ferr != nil {
			break
		}
		acked.Store(int32(b))
	}
	close(stop)
	<-done
	if ferr != nil {
		return ferr
	}
	if wrong > 0 || len(perQuery) == 0 {
		return fmt.Errorf("in-process queries beside ingest: %d wrong answers in %d batches", wrong, len(perQuery))
	}
	l.values["monitor.queries.ns_per_query_ingesting"] = quantile(perQuery, 0.5)
	return nil
}

// spanJournal and spanHistory put the tenant's WAL and replay plane inside
// the client's spans: the client is synchronous, so whatever span it has
// open on a connection is the parent of what the daemon does for it.
type spanJournal struct {
	monitor.RunJournal
	rec    *recorder
	parent *atomic.Int64 // the open client.report_batch span: index<<32 | batch
}

func (j spanJournal) AppendRun(events []model.Event) error {
	p := j.parent.Load()
	id := j.rec.begin("wal", "append_run", int(int32(p)), int(p>>32))
	err := j.RunJournal.AppendRun(events)
	j.rec.end(id)
	return err
}

type spanHistory struct {
	monitor.HistoryProvider
	rec    *recorder
	parent *atomic.Int64
}

func (h spanHistory) HistoryAt(cutoff uint64) (*monitor.Queries, error) {
	p := h.parent.Load()
	id := h.rec.begin("replay", "history_at", int(int32(p)), int(p>>32))
	q, err := h.HistoryProvider.HistoryAt(cutoff)
	h.rec.end(id)
	return q, err
}

// serveStream ingests every arrival batch through a served in-process stack
// and returns what that cost; rec may be nil.
func (l *ladder) serveStream(tg *inprocTarget, rec *recorder, layer string, ingestSpan *atomic.Int64) (cost, *monitor.ClientV2, error) {
	// A fresh daemon faults its heap in page by page; hand the earlier
	// rungs' pages back so this one pays for that too.
	debug.FreeOSMemory()
	addr, err := tg.start(filepath.Join(l.dir, layer))
	if err != nil {
		return cost{}, nil, err
	}
	c, err := monitor.DialV2(addr)
	if err != nil {
		tg.crash()
		return cost{}, nil, err
	}
	cst, err := timed(func() error {
		root := rec.begin(layer, "rung", -1, -1)
		defer rec.end(root)
		for b, batch := range l.in.batches {
			id := rec.begin(layer, "client.report_batch", b, root)
			ingestSpan.Store(int64(id)<<32 | int64(b))
			err := c.ReportBatch(batch)
			rec.end(id)
			if err != nil {
				return err
			}
		}
		// Acknowledged is not queryable until the lanes have published.
		res, err := c.QueryBatch([]monitor.Query{l.in.final})
		if err == nil && res[0].Err != nil {
			err = res[0].Err
		}
		return err
	})
	if err != nil {
		c.Close()
		tg.crash()
		return cost{}, nil, fmt.Errorf("%s: %w", layer, err)
	}
	return cst, c, nil
}

// server: the whole served stack in process, three ways — bare, with the
// bench's spans, and with poetd's default telemetry — then queries and time
// travel through it, and the replay plane over the log it wrote.
func (l *ladder) server() (counters, error) {
	spec := l.in.spec
	base := inprocTarget{procs: l.in.procs, shards: spec.shards, planQueue: spec.planQueue}
	var ingestSpan, querySpan atomic.Int64

	// Bare and with poetd's default telemetry (what the real daemon runs),
	// twice each and alternating; the faster stream of each kind is kept,
	// because the difference between two single samples is mostly noise.
	// Allocation and GC figures are taken over the first telemetry stream,
	// construction outside the timed region.
	tel := base
	tel.telemetry = true
	var bareCost, telCost cost
	var m0, m1 runtime.MemStats
	var gc0, gc1 float64
	for round := 0; round < 2; round++ {
		for _, v := range []struct {
			tg    inprocTarget
			layer string
			best  *cost
		}{{base, "monitor.server.bare", &bareCost}, {tel, "monitor.server", &telCost}} {
			first := round == 0 && v.tg.telemetry
			if first {
				gc0 = gcCPU()
				runtime.ReadMemStats(&m0)
			}
			cst, c, err := l.serveStream(&v.tg, nil, v.layer, &ingestSpan)
			if err != nil {
				return counters{}, err
			}
			if first {
				runtime.ReadMemStats(&m1)
				gc1 = gcCPU()
				l.values["runtime.gc_cpu_share"] = (gc1 - gc0) / cst.cpu.Seconds()
			}
			c.Close()
			v.tg.crash()
			if err := os.RemoveAll(filepath.Join(l.dir, v.layer)); err != nil {
				return counters{}, err
			}
			if round == 0 || cst.wall < v.best.wall {
				*v.best = cst
			}
		}
	}
	ev := float64(l.events())
	l.values["monitor.server.cpu_us_per_event"] = telCost.cpuUs(l.events())
	l.values["monitor.server.wall_ns_per_event"] = telCost.wallNs(l.events())
	l.values["obs.overhead_pct"] = 100 * (telCost.wall.Seconds() - bareCost.wall.Seconds()) / bareCost.wall.Seconds()
	l.values["runtime.allocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / ev
	l.values["runtime.heap_bytes_per_event"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ev
	l.values["runtime.gc_pause_p99_ms"] = gcPauseP99(&m0, &m1)

	// With the bench's spans around the client calls, the WAL and the
	// replay plane. The difference from bare is what tracing costs; it is one
	// traced stream against the faster of two bare ones, so it errs high.
	traced := base
	traced.wrapJournal = func(j monitor.RunJournal) monitor.RunJournal {
		return spanJournal{j, l.rec, &ingestSpan}
	}
	traced.wrapHistory = func(h monitor.HistoryProvider) monitor.HistoryProvider {
		return spanHistory{h, l.rec, &querySpan}
	}
	const layer = "monitor.server.traced"
	tracedCost, c, err := l.serveStream(&traced, l.rec, layer, &ingestSpan)
	if err != nil {
		return counters{}, err
	}
	defer traced.crash()
	defer c.Close()
	l.values["bench.trace_overhead_pct"] = 100 * (tracedCost.wall.Seconds() - bareCost.wall.Seconds()) / bareCost.wall.Seconds()
	appendNs := 0.0
	for _, d := range l.rec.durations("wal", "append_run") {
		appendNs += d
	}
	l.values["monitor.server.wal_append_ns_per_event"] = appendNs / ev

	// Queries: the same batches in process and over the wire.
	cn := &conn{c: c}
	mon := traced.mon
	rng := rand.New(rand.NewSource(l.in.seed + 404))
	d0, r0 := mon.QueryPathCounts()
	var local, served float64
	for i := 0; i < queryRounds; i++ {
		off, n := window(rng, len(l.in.pool), queryBatch)
		qs := l.in.pool[off : off+n]
		id := l.rec.begin("monitor.queries", "query_batch", i, -1)
		t := time.Now()
		res := mon.QueryBatch(qs)
		local += float64(time.Since(t).Nanoseconds())
		l.rec.end(id)
		cn.check(l.in, off, res, nil, false)
		cn.attempted-- // not a frame

		id = l.rec.begin(layer, "client.query_batch", i, -1)
		t = time.Now()
		res, err := c.QueryBatch(qs)
		served += float64(time.Since(t).Nanoseconds())
		l.rec.end(id)
		cn.check(l.in, off, res, err, false)
	}
	d1, r1 := mon.QueryPathCounts()
	l.values["monitor.queries.ns_per_query"] = local / float64(queryRounds*queryBatch)
	l.values["monitor.server.query_wire_us_per_batch"] = (served - local) / float64(queryRounds) / 1e3
	l.values["monitor.queries.direct_share"] = float64(d1-d0) / float64(max(d1-d0+r1-r0, 1))
	cutNs := 0.0
	for i := 0; i < cutEvents; i++ {
		e := l.in.pool[rng.Intn(len(l.in.pool))].B
		id := l.rec.begin("monitor.queries", "greatest_predecessors", i, -1)
		t := time.Now()
		_, err := mon.GreatestPredecessors(e)
		cutNs += float64(time.Since(t).Nanoseconds())
		l.rec.end(id)
		if err != nil {
			return cn.counters, fmt.Errorf("GreatestPredecessors(%v): %w", e, err)
		}
	}
	l.values["monitor.queries.cut_us"] = cutNs / cutEvents / 1e3

	// Time travel through the server: replay.history_at nests in the
	// client's span.
	time.Sleep(serverQuiesce)
	for k := 1; k <= timeTravelCuts; k++ {
		id := l.rec.begin(layer, "client.query_at", k, -1)
		querySpan.Store(int64(id)<<32 | int64(k))
		cn.queryAt(l.in, rng, k*len(l.in.batches)/(timeTravelCuts+1), timeTravelBatch)
		l.rec.end(id)
	}

	// The replay plane alone, over the log this server wrote.
	walDir := filepath.Join(l.dir, layer, monitor.DefaultTenant)
	var store *replay.Store
	open, err := l.one("replay", "open", func() error {
		var err error
		store, err = replay.Open(walDir, replay.Options{NumProcs: l.in.procs, NewConfig: newConfig})
		return err
	})
	if err != nil {
		return cn.counters, err
	}
	defer store.Close()
	last := len(l.in.batches) - 1
	var view *replay.View
	forward, err := l.one("replay", "view_at.forward", func() error {
		var err error
		view, err = store.ViewAt(l.in.delivered[last])
		return err
	})
	if err != nil {
		return cn.counters, err
	}
	backward, err := l.one("replay", "view_at.backward", func() error {
		_, err := store.ViewAt(l.in.delivered[last/2])
		return err
	})
	if err != nil {
		return cn.counters, err
	}
	replayNs := 0.0
	for i := 0; i < queryRounds; i++ {
		off, n := window(rng, len(l.in.pool), queryBatch)
		id := l.rec.begin("replay", "view.query_batch", i, -1)
		t := time.Now()
		res := view.QueryBatch(l.in.pool[off : off+n])
		replayNs += float64(time.Since(t).Nanoseconds())
		l.rec.end(id)
		cn.check(l.in, off, res, nil, true)
		cn.attempted--
	}
	l.values["replay.open_s"] = open.wall.Seconds()
	l.values["replay.view_forward_ms_per_million"] = ms(forward.wall) / (ev / 1e6)
	l.values["replay.view_backward_ms"] = ms(backward.wall)
	l.values["replay.query_ns"] = replayNs / float64(queryRounds*queryBatch)
	return cn.counters, nil
}

// daemon: one pass of the end-to-end scenario against the real daemon, for
// the tails that are too unsteady to gate on and for the budget check, then
// the rate ladder.
func (l *ladder) daemon() (counters, error) {
	tg := l.o.target(l.in)
	cfg := passConfig{workDir: l.dir, queryPhase: tinyQuery}
	// The first daemon after the in-process rungs have grown and released a
	// gigabyte runs at a third of its speed (measured on scattered-stream:
	// 258k vs 724k events/s), so, as in the untraced run, one pass warms up
	// and is discarded.
	if l.o.sc == scaleFull {
		if _, err := runPass(l.in, tg, cfg, 0); err != nil {
			return counters{}, fmt.Errorf("daemon warm-up pass: %w", err)
		}
	}
	p, err := runPass(l.in, tg, cfg, 1)
	if err != nil {
		return counters{}, fmt.Errorf("daemon pass: %w", err)
	}
	fmt.Fprintf(l.o.log, "daemon pass: ingest %.0f ev/s  daemon cpu %.3f us/event  ack p50 %.3f ms\n",
		p.values["ingest_events_per_s"], p.values["daemon_cpu_us_per_event"], p.values["ack_p50_ms"])
	total := p.counters
	sent := p.pacedEvents + p.satEvents
	l.values["monitor.server.ack_p99_ms"] = quantile(p.ackMs, 0.99)
	l.values["monitor.server.ack_max_ms"] = quantile(p.ackMs, 1)
	l.values["loadgen.lateness_p99_ms"] = quantile(p.latenessMs, 0.99)
	l.values["loadgen.cpu_us_per_event"] = float64(p.loadgenCPU.Nanoseconds()) / 1e3 / float64(sent)

	// The budget: the served rung's CPU, less the client's and the wire's,
	// should be the CPU the daemon process reports for itself.
	for _, m := range passMetrics {
		if m.bound == 0 {
			l.values["daemon."+m.name] = p.values[m.name]
		}
	}
	daemonCPU := p.values["daemon_cpu_us_per_event"]
	budget := l.values["monitor.server.cpu_us_per_event"] - l.values["wire-sink.cpu_us_per_event"]
	l.values["budget.reconcile_pct"] = 100 * math.Abs(budget-daemonCPU) / daemonCPU

	best, c, err := l.rateLadder(tg, p.values["ingest_events_per_s"])
	total.add(c)
	l.values["monitor.server.max_rate_under_limit_events_per_s"] = best
	return total, err
}

// rateLadder sends a quarter of the stream at each of four fixed rates to one
// fresh daemon and returns the highest rate whose ack p99, timed from when
// each batch was due, stays under the limit without the generator falling
// steadily behind; 0 when none does.
func (l *ladder) rateLadder(tg target, saturated float64) (best float64, c counters, err error) {
	walDir := filepath.Join(l.dir, "rate-ladder")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return 0, c, err
	}
	addr, err := tg.start(walDir)
	if err != nil {
		return 0, c, err
	}
	defer func() {
		if cerr := tg.crash(); err == nil {
			err = cerr
		}
	}()
	client, err := dialReady(tg, addr)
	if err != nil {
		return 0, c, err
	}
	defer client.Close()
	cn := &conn{c: client}
	per := int(ladderShare * float64(len(l.in.batches)))
	root := l.rec.begin("rate-ladder", "rung", -1, -1)
	defer l.rec.end(root)
	for s, share := range ladderSteps {
		rate := share * saturated
		interval := time.Duration(float64(l.in.spec.batch) / rate * float64(time.Second))
		var ack, late []float64
		start := time.Now()
		for i := 0; i < per; i++ {
			b := s*per + i
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, ms(time.Since(due)))
			id := l.rec.begin("rate-ladder", fmt.Sprintf("report_batch@%.0f%%", share*100), b, root)
			err := cn.report(l.in, b, "rate ladder")
			l.rec.end(id)
			if err != nil {
				return best, cn.counters, err
			}
			ack = append(ack, ms(time.Since(due)))
		}
		q := max(len(late)/4, 1)
		grows := mean(late[len(late)-q:])-mean(late[:q]) > latenessGrow
		if quantile(ack, 0.99) <= ackLimitMs && !grows {
			best = rate
		}
	}
	return best, cn.counters, nil
}

// gcCPU is the CPU the collector has used so far, in seconds.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcPauseP99 is the 99th percentile of the stop-the-world pauses between two
// MemStats readings, in ms (0 when no collection ran).
func gcPauseP99(m0, m1 *runtime.MemStats) float64 {
	var pauses []float64
	for n := m0.NumGC; n < m1.NumGC && n < m0.NumGC+uint32(len(m1.PauseNs)); n++ {
		pauses = append(pauses, float64(m1.PauseNs[n%uint32(len(m1.PauseNs))])/1e6)
	}
	if len(pauses) == 0 {
		return 0
	}
	return quantile(pauses, 0.99)
}
