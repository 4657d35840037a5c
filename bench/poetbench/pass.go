package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
)

const (
	queryBatch      = 256                    // queries per QUERY frame
	timeTravelBatch = 64                     // queries per QUERY@ frame in the timetravel phase
	timeTravelCuts  = 16                     // ascending cutoffs at k/17 of the stream
	queryEvery      = 5 * time.Millisecond   // open-loop query period during the paced phase
	probeEvery      = 8                      // a freshness probe follows every 8th ACK
	queryAtEvery    = 16                     // read-heavy: every 16th query batch is a QUERY@
	durableAfter    = 400 * time.Millisecond // -fsync batch writes its buffer out within 2 × 50 ms; four times that rides out a stall
	maxLatenessMs   = 5.0                    // a pass whose generator ran later than this on its own account (p99) is invalid
	readyTimeout    = 20 * time.Second
)

// passConfig is what differs between the full benchmark and the smoke test.
type passConfig struct {
	workDir    string
	queryPhase time.Duration // length of the closed-loop query phase
}

// passResult is one pass of the scenario. values holds the end-to-end
// metrics; the rest feeds the correctness verdict and the per-layer tails.
type passResult struct {
	values map[string]float64
	counters

	ackMs       []float64 // paced: due → ACK, every batch
	latenessMs  []float64 // paced: the later of due and the previous ACK → send started
	loadgenCPU  time.Duration
	pacedEvents int
	satEvents   int
	invalid     string // why the pass does not count, if it does not
	wallSeconds float64
}

// counters is the correctness accounting of one connection or one pass.
type counters struct {
	attempted int64 // frames sent (a probe counts once)
	failed    int64 // frames that failed or were refused, and answerable queries answered with an error
	wrong     int64 // answers that differ from the Fidge/Mattern oracle
	checked   int64 // answers compared with the oracle
	atChecked int64 // of those, QUERY@ answers
}

func (c *counters) add(d counters) {
	c.attempted += d.attempted
	c.failed += d.failed
	c.wrong += d.wrong
	c.checked += d.checked
	c.atChecked += d.atChecked
}

// conn is a client connection with its own accounting; one goroutine uses it
// at a time.
type conn struct {
	c *monitor.ClientV2
	counters
}

// check compares the answers to pool pairs [off, off+len(res)) with the oracle.
func (cn *conn) check(in *input, off int, res []monitor.QueryResult, err error, at bool) {
	cn.attempted++
	if err != nil {
		cn.failed++
		return
	}
	for i, r := range res {
		switch {
		case r.Err != nil:
			cn.failed++
		case r.True != in.want[off+i]:
			cn.wrong++
		}
	}
	cn.checked += int64(len(res))
	if at {
		cn.atChecked += int64(len(res))
	}
}

// checkOne compares one answer about a pair outside the pool.
func (cn *conn) checkOne(r monitor.QueryResult, want bool) {
	if r.True != want {
		cn.wrong++
	}
	cn.checked++
}

// window picks n consecutive pool pairs among the first k.
func window(rng *rand.Rand, k, n int) (off, size int) {
	if k <= n {
		return 0, k
	}
	return rng.Intn(k - n + 1), n
}

// query asks one batch among the first k pool pairs and returns its size.
func (cn *conn) query(in *input, rng *rand.Rand, k int) int {
	off, n := window(rng, k, queryBatch)
	res, err := cn.c.QueryBatch(in.pool[off : off+n])
	cn.check(in, off, res, err, false)
	return n
}

// queryAt asks up to n pairs against history as of the ACK of batch.
func (cn *conn) queryAt(in *input, rng *rand.Rand, batch, n int) int {
	off, n := window(rng, in.eligible(batch), n)
	if n == 0 {
		return 0
	}
	res, err := cn.c.QueryBatchAt(in.delivered[batch], in.pool[off:off+n])
	cn.check(in, off, res, err, true)
	return n
}

// probe asks about one event until the daemon answers without error, which
// is when the event is queryable. A lagged stream can hold the last paced
// batches' events until records of the saturate phase arrive; such a probe
// ends with the paced phase (abandon closes) and counts for nothing.
func (cn *conn) probe(q monitor.Query, deadline time.Time, abandon <-chan struct{}) bool {
	for {
		res, err := cn.c.QueryBatch([]monitor.Query{q})
		if err == nil && res[0].Err == nil {
			cn.attempted++
			return true
		}
		select {
		case <-abandon:
			return false
		default:
		}
		if err != nil || time.Now().After(deadline) {
			cn.attempted++
			cn.failed++
			return false
		}
	}
}

// report sends one EVENTS frame.
func (cn *conn) report(in *input, b int, phase string) error {
	cn.attempted++
	if err := cn.c.ReportBatch(in.batches[b]); err != nil {
		cn.failed++
		return fmt.Errorf("%s batch %d: %w", phase, b, err)
	}
	return nil
}

func dialReady(tg target, addr string) (*monitor.ClientV2, error) {
	deadline := time.Now().Add(readyTimeout)
	for {
		c, err := monitor.DialV2(addr)
		if err == nil {
			return c, nil
		}
		if tg.exited() {
			return nil, fmt.Errorf("daemon exited before serving: %w", err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not serving after %v: %w", readyTimeout, err)
		}
		time.Sleep(100 * time.Microsecond) // setup_s is a few ms: a coarser poll would show in it
	}
}

// parseStats reads the numeric key=value fields of a STATS body.
func parseStats(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range strings.Fields(body) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = x
			}
		}
	}
	return out
}

type probeReq struct {
	batch int
	due   time.Time
}

// runPass drives one fresh daemon through every phase.
func runPass(in *input, tg target, cfg passConfig, passNo int) (res *passResult, err error) {
	res = &passResult{values: make(map[string]float64)}
	walDir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), passNo))
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := tg.crash(); cerr != nil && err == nil {
			err = cerr
		}
		os.RemoveAll(walDir)
	}()
	runtime.GC()
	passStart := time.Now()

	// --- setup: nothing → a daemon that answers ---------------------------
	setupStart := time.Now()
	addr, err := tg.start(walDir)
	if err != nil {
		return nil, err
	}
	ingest, err := dialReady(tg, addr)
	if err != nil {
		return nil, err
	}
	defer func() { ingest.Close() }()
	if _, err := ingest.Stats(); err != nil {
		return nil, fmt.Errorf("first STATS: %w", err)
	}
	res.values["setup_s"] = time.Since(setupStart).Seconds()
	qc, err := monitor.DialV2(addr)
	if err != nil {
		return nil, err
	}
	defer func() { qc.Close() }()
	ing, qry := &conn{c: ingest}, &conn{c: qc}
	defer func() {
		if res != nil {
			res.add(ing.counters)
			res.add(qry.counters)
		}
	}()

	spec := in.spec
	nPaced := int(spec.pacedShare * float64(len(in.batches)))
	interval := time.Duration(float64(spec.batch) / spec.pacedRate * float64(time.Second))
	anchorReady := int(in.ready[0])

	// --- paced: open-loop ingest beside queries ---------------------------
	var (
		acked    atomic.Int32 // last acknowledged batch
		ackAt    = make([]time.Time, nPaced)
		probes   = make(chan probeReq, 1)
		stop     = make(chan struct{})
		done     = make(chan struct{})
		freshMs  []float64
		queryMs  []float64
		nQueries int64
	)
	acked.Store(-1)
	cpu0 := selfCPU()
	go func() { // the query connection's only goroutine
		defer close(done)
		rng := rand.New(rand.NewSource(in.seed + 101))
		tick := time.NewTicker(queryEvery)
		defer tick.Stop()
		durable, issued := -1, 0
		doProbe := func(p probeReq) {
			q := monitor.Query{Op: monitor.OpPrecedes, A: in.anchor, B: in.batches[p.batch][len(in.batches[p.batch])-1].ID}
			if qry.probe(q, time.Now().Add(2*time.Second), stop) {
				freshMs = append(freshMs, ms(time.Since(p.due)))
			}
		}
		doQuery := func() {
			b := int(acked.Load())
			k := in.eligible(b) // 0 until the first ACK
			if k == 0 {
				return
			}
			issued++
			start := time.Now()
			if spec.readHeavy && issued%queryAtEvery == 0 {
				// Time travel to half of what is surely on disk by now.
				for durable+1 <= b && time.Since(ackAt[durable+1]) >= durableAfter {
					durable++
				}
				if durable >= 0 {
					if n := qry.queryAt(in, rng, durable/2, queryBatch); n > 0 {
						nQueries += int64(n)
						return
					}
				}
			}
			nQueries += int64(qry.query(in, rng, k))
			queryMs = append(queryMs, ms(time.Since(start)))
		}
		// The read-heavy connection never waits for the tick: closed loop.
		always := make(chan time.Time)
		close(always)
		next := tick.C
		if spec.readHeavy {
			next = always
		}
		for {
			select {
			case p := <-probes:
				doProbe(p)
				continue
			case <-stop:
				// A probe handed over as the phase ended still counts.
				select {
				case p := <-probes:
					doProbe(p)
				default:
				}
				return
			default:
			}
			select {
			case p := <-probes:
				doProbe(p)
			case <-stop:
			case <-next:
				doQuery()
			}
		}
	}()
	pacedStart := time.Now()
	free := pacedStart // when the synchronous ingest connection could next send
	for i := 0; i < nPaced; i++ {
		due := pacedStart.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// A batch that is due while the previous one still waits for its ACK
		// is late because of the daemon, and the ACK time from due counts
		// that; the generator's own lateness starts when it could have sent.
		if due.After(free) {
			free = due
		}
		res.latenessMs = append(res.latenessMs, ms(time.Since(free)))
		if err := ing.report(in, i, "paced"); err != nil {
			close(stop)
			<-done
			return nil, err
		}
		ackAt[i] = time.Now()
		free = ackAt[i]
		res.ackMs = append(res.ackMs, ms(ackAt[i].Sub(due)))
		acked.Store(int32(i))
		res.pacedEvents += len(in.batches[i])
		if i%probeEvery == probeEvery-1 && i >= anchorReady {
			select {
			case probes <- probeReq{i, due}:
			default: // the previous probe is still waiting; skip this one
			}
		}
	}
	pacedWall := time.Since(pacedStart)
	close(stop)
	<-done
	if len(res.ackMs) == 0 || len(freshMs) == 0 || len(queryMs) == 0 {
		return nil, fmt.Errorf("paced phase too short: %d acks, %d probes, %d query batches", len(res.ackMs), len(freshMs), len(queryMs))
	}
	res.values["ack_p50_ms"] = quantile(res.ackMs, 0.5)
	res.values["fresh_p50_ms"] = quantile(freshMs, 0.5)
	res.values["query_p50_ms"] = quantile(queryMs, 0.5)
	if p99 := quantile(res.latenessMs, 0.99); p99 > maxLatenessMs {
		res.invalid = fmt.Sprintf("generator lateness p99 %.2f ms > %.0f ms", p99, maxLatenessMs)
	}

	// --- saturate: closed-loop ingest, nothing else running ---------------
	dcpu0, _, err := tg.usage()
	if err != nil {
		return nil, err
	}
	satStart := time.Now()
	for i := nPaced; i < len(in.batches); i++ {
		if err := ing.report(in, i, "saturate"); err != nil {
			return nil, err
		}
		res.satEvents += len(in.batches[i])
	}
	// Acknowledged is not enough: the clock stops when the last event answers.
	ing.attempted++
	fin, err := ingest.QueryBatch([]monitor.Query{in.final})
	satWall := time.Since(satStart)
	dcpu1, hwm, uerr := tg.usage()
	res.loadgenCPU = selfCPU() - cpu0
	if err != nil || fin[0].Err != nil {
		return nil, fmt.Errorf("last acknowledged event not queryable: %v %v", err, fin)
	}
	if uerr != nil {
		return nil, uerr
	}
	ing.checkOne(fin[0], in.finalWant)
	total := len(in.arrival)
	res.values["ingest_events_per_s"] = float64(res.satEvents) / satWall.Seconds()
	res.values["daemon_cpu_us_per_event"] = float64((dcpu1 - dcpu0).Microseconds()) / float64(res.satEvents)
	res.values["rss_bytes_per_event"] = float64(hwm) / float64(total)
	if err := ing.checkStats(in, "after saturate"); err != nil {
		return nil, err
	}

	// --- query: closed loop on a quiescent store --------------------------
	rng := rand.New(rand.NewSource(in.seed + 202))
	qStart, n := time.Now(), 0
	for time.Since(qStart) < cfg.queryPhase {
		n += qry.query(in, rng, len(in.pool))
	}
	if spec.readHeavy {
		res.values["queries_per_s"] = float64(nQueries) / pacedWall.Seconds()
	} else {
		res.values["queries_per_s"] = float64(n) / time.Since(qStart).Seconds()
	}

	// --- timetravel: ascending cutoffs through recorded history -----------
	// QUERY@ reads the log, and -fsync batch may hold the tail in a buffer
	// until its next tick; the query phase is normally longer than that.
	time.Sleep(time.Until(satStart.Add(satWall + durableAfter)))
	ttStart := time.Now()
	for k := 1; k <= timeTravelCuts; k++ {
		qry.queryAt(in, rng, k*len(in.batches)/(timeTravelCuts+1), timeTravelBatch)
	}
	res.values["timetravel_s"] = time.Since(ttStart).Seconds()

	// --- recover: SIGKILL → first answered query --------------------------
	ingest.Close()
	qc.Close()
	recStart := time.Now()
	if err := tg.crash(); err != nil {
		return nil, err
	}
	if addr, err = tg.start(walDir); err != nil {
		return nil, err
	}
	if ingest, err = dialReady(tg, addr); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	ing.c = ingest
	ing.attempted++
	fin, err = ingest.QueryBatch([]monitor.Query{in.final})
	res.values["recovery_s"] = time.Since(recStart).Seconds()
	if err != nil || fin[0].Err != nil {
		return nil, fmt.Errorf("acknowledged event lost across SIGKILL: %v %v", err, fin)
	}
	ing.checkOne(fin[0], in.finalWant)
	// acknowledged ⇒ durable ⇒ queryable: same accounting, same answers.
	if err := ing.checkStats(in, "after recovery"); err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		ing.query(in, rng, len(in.pool))
	}
	res.wallSeconds = time.Since(passStart).Seconds()
	return res, nil
}

// checkStats compares the daemon's accounting with the single-writer
// reference: every event delivered, none held, and the same storage — which
// is the paper's timestamp-size ratio, to the integer.
func (cn *conn) checkStats(in *input, when string) error {
	cn.attempted++
	body, err := cn.c.Stats()
	if err != nil {
		cn.failed++
		return fmt.Errorf("STATS %s: %w", when, err)
	}
	st := parseStats(body)
	if int(st["events"]) != in.refEvents || int64(st["storage"]) != in.refStorage || st["held"] != 0 {
		return fmt.Errorf("%s: daemon events=%v storage=%v held=%v, single-writer reference events=%d storage=%d held=0",
			when, st["events"], st["storage"], st["held"], in.refEvents, in.refStorage)
	}
	return nil
}
