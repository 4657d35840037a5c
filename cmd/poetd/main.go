// Command poetd runs the monitoring entity as a network daemon — the
// centre of the paper's Figure 1. Instrumented processes connect over TCP
// and stream their event records (in any cross-process arrival order);
// visualization and control clients connect and issue precedence queries.
//
// Usage:
//
//	poetd -procs 300 -addr 127.0.0.1:7777 -maxcs 13 -strategy merge-nth -threshold 10
//
// With -wal the daemon becomes durable: every delivered run is appended to
// a CRC-framed write-ahead log before it reaches the clustering structures,
// and on restart the daemon replays the log (newest snapshot plus tail)
// through the same batched ingest path, reconstructing its state exactly:
//
//	poetd -procs 300 -wal /var/lib/poetd/wal -fsync batch -snapshot-every 1048576
//
// A durable daemon also serves time travel: QUERY@ frames (poquery -at) are
// answered as of any recorded event count from the daemon's one store,
// clamped to the per-process watermark it held at that count — found by
// counting the log, never by stamping it again (DESIGN.md §12).
//
// Delivery is sharded: -ingest-shards stamping lanes (default GOMAXPROCS)
// split the timestamp vector math across cores behind a sequential planner,
// so results are identical to single-writer delivery at any shard count
// (DESIGN.md §11). STATS and /metrics report the per-shard event tallies.
//
// With -http the daemon exposes an admin plane on a second listener:
// Prometheus metrics at /metrics (ingest/query/WAL latency histograms plus
// the paper's live gauges — timestamp size ratio, cluster distribution,
// merge counts), JSON status at /statusz, the slowest recent operations and
// sampled span traces at /tracez, liveness and readiness probes, and the
// runtime/pprof's profiles at /debug/pprof/:
//
//	poetd -procs 300 -http 127.0.0.1:7778
//	curl -s 127.0.0.1:7778/metrics | grep poetd_ts_size_ratio
//
// The admin plane answers GET and HEAD over HTTP/1.1 with a small bounded
// responder (internal/obs), not net/http, so the daemon links no TLS stack:
// keep it on a loopback or otherwise trusted address.
//
// Batch tracing: up to -trace-sample batches per second carry a span trace
// through the pipeline (decode, validate, WAL append/fsync, plan, per-lane
// stamp), batches slower than -slow-op are always captured, and histogram
// buckets on /metrics carry exemplar trace IDs that resolve at
// /tracez?trace=<id> — scrape with Accept: application/openmetrics-text to
// see them; the classic text format has no exemplar syntax (DESIGN.md §14).
//
// Every connection speaks protocol v2: length-prefixed binary frames
// carrying batches of events and queries (see internal/monitor/protocol.go
// for the framing spec), one codec over one request path (DESIGN.md §7).
// internal/monitor.DialV2 implements the client side, and poquery -addr
// drives it from the command line:
//
//	poetd -procs 300 &
//	poquery -addr 127.0.0.1:7777 -trace pvm/ring-300 -load -sample 50
//	poquery -addr 127.0.0.1:7777 -e 0:1 -f 1:5
//	poquery -addr 127.0.0.1:7777 -watch 1s -watch-count 1
//
// The daemon is multi-tenant: a connection that sends a TENANT frame is
// scoped to that namespace, which owns its own monitor pipeline, collector,
// WAL directory (`<walroot>/<tenant>/`) and replay plane. Tenants are created on demand up to -max-tenants, each with
// -max-processes processes and an optional -tenant-max-events quota; on
// restart every tenant directory under the WAL root is discovered and
// recovered. Connections that never select a tenant speak to the "default"
// namespace, so pre-tenant clients work unchanged. A WAL root that already
// holds pre-tenant segments (wal-*.log directly in the root) keeps serving
// them as the default tenant's log — no migration needed.
//
// The daemon binds -addr first and starts accepting once every tenant it
// found is recovered: a client that dials during start-up waits for its
// HELLO, and if a recovery fails the daemon exits non-zero and that client's
// connection is reset.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting, waits
// up to -grace for connected clients to finish their sessions, then closes
// and reports the final ingestion statistics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/tcp"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7777", "listen address: "+tcp.AddrRule)
		httpAddr  = flag.String("http", "", "admin HTTP listen address for /metrics, /statusz, /tracez, /debug/pprof (empty = disabled), in -addr's form")
		procs     = flag.Int("procs", 300, "number of monitored processes")
		maxCS     = flag.Int("maxcs", 13, "maximum cluster size")
		strat     = flag.String("strategy", "merge-1st", "merge-1st | merge-nth")
		threshold = flag.Float64("threshold", 10, "normalized CR threshold for merge-nth")
		fixed     = flag.Int("fixed", metrics.DefaultFixedVector, "fixed encoding vector size")
		maxConns  = flag.Int("maxconns", monitor.DefaultMaxConns, "maximum simultaneous connections")
		maxBatch  = flag.Int("maxbatch", monitor.DefaultMaxBatch, "maximum records per EVENTS/QUERY frame")
		queue     = flag.Int("queue", monitor.DefaultSubmitQueue, "submit queue depth (batches) before producers block")
		idle      = flag.Duration("idle-timeout", 0, "close connections idle for this long (0 = never)")
		writeTO   = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none)")
		grace     = flag.Duration("grace", 5*time.Second, "graceful shutdown drain window")
		shards    = flag.Int("ingest-shards", 0, "ingest shards (stamping lanes); 0 = GOMAXPROCS, 1 = single-writer")
		planQueue = flag.Int("plan-queue", 0, "plan-queue depth in batches above one lane (≤0 = default 4)")
		walDir    = flag.String("wal", "", "write-ahead log root directory (empty = no durability); tenants use <root>/<tenant>/")
		fsync     = flag.String("fsync", "batch", "WAL fsync policy: always | batch | never")
		snapEvery = flag.Int64("snapshot-every", 1<<20, "cut a WAL snapshot every N events (0 = never)")
		logLevel  = flag.String("log-level", "info", "log level: debug | info | warn | error")
		slowOp    = flag.Duration("slow-op", 100*time.Millisecond, "log operations at least this slow at warn (0 = never)")
		traceRate = flag.Float64("trace-sample", obs.DefaultTraceRate, "head-sample up to this many batch traces per second (0 = tail-only: trace just batches slower than -slow-op)")

		maxTenants   = flag.Int("max-tenants", monitor.DefaultMaxTenants, "maximum tenant namespaces served (the default tenant included)")
		tenantProcs  = flag.Int("max-processes", 0, "monitored processes per on-demand tenant (0 = same as -procs)")
		tenantEvents = flag.Int64("tenant-max-events", 0, "per-tenant event quota, recovered events included (0 = unlimited)")
	)
	flag.Parse()

	level, ok := parseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "poetd: unknown log level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	// newCfg hands out a fresh Config per call (deciders are stateful): one
	// per tenant's monitor.
	var newCfg func() hct.Config
	switch *strat {
	case "merge-1st":
		newCfg = func() hct.Config {
			return hct.Config{MaxClusterSize: *maxCS, Decider: strategy.NewMergeOnFirst()}
		}
	case "merge-nth":
		newCfg = func() hct.Config {
			return hct.Config{MaxClusterSize: *maxCS, Decider: strategy.NewMergeOnNth(*threshold)}
		}
	default:
		fmt.Fprintf(os.Stderr, "poetd: unknown strategy %q\n", *strat)
		os.Exit(2)
	}
	if *fixed < 1 {
		fmt.Fprintf(os.Stderr, "poetd: -fixed %d: the fixed encoding vector needs at least one element\n", *fixed)
		os.Exit(2)
	}
	for _, a := range []struct{ flag, value string }{{"addr", *addr}, {"http", *httpAddr}} {
		if a.value == "" && a.flag == "http" {
			continue
		}
		if _, err := tcp.ParseAddr(a.value); err != nil {
			fmt.Fprintf(os.Stderr, "poetd: -%s: %v\n", a.flag, err)
			os.Exit(2)
		}
	}
	var policy wal.SyncPolicy
	if *walDir != "" {
		p, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poetd: %v\n", err)
			os.Exit(2)
		}
		policy = p
	}

	// Bind before building: a client that dials while the default tenant is
	// built and its log recovered waits in the listen backlog for its HELLO
	// instead of being refused and retrying. Serve starts accepting below.
	ln, err := tcp.Listen(*addr)
	if err != nil {
		fatal("listen failed", err)
	}
	logger.Info("listening", "addr", ln.Addr())

	reg := obs.NewRegistry()
	tel := obs.NewTelemetry(reg)
	tel.SlowOp = *slowOp
	tel.Logger = logger
	tel.Sampler = obs.NewSampler(*traceRate)

	// Pre-tenant WAL roots hold their segments directly (wal-*.log in the
	// root); such a root keeps serving as the default tenant's directory.
	// Tenant-aware roots lay each namespace out as <root>/<tenant>/.
	legacyRoot := *walDir != "" && legacyWALLayout(*walDir)
	tenantWALDir := func(name string) string {
		if legacyRoot && name == monitor.DefaultTenant {
			return *walDir
		}
		return filepath.Join(*walDir, name)
	}

	// newTenant builds one namespace's full serving stack: a sharded
	// monitor, and — when durable — its WAL (recovered through the batched
	// ingest path) plus a replay plane over the same directory and the
	// monitor's own store. The server calls it once per namespace, on demand,
	// and owns the returned Close.
	newTenant := func(name string) (monitor.TenantResources, error) {
		nprocs := *procs
		if name != monitor.DefaultTenant && *tenantProcs > 0 {
			nprocs = *tenantProcs
		}
		m, err := monitor.NewWithOptions(nprocs, newCfg(), hct.PipelineOptions{Shards: *shards, PlanQueue: *planQueue})
		if err != nil {
			return monitor.TenantResources{}, err
		}
		res := monitor.TenantResources{Monitor: m}
		if *walDir == "" {
			res.Close = func() error { m.Close(); return nil }
			return res, nil
		}
		dir := tenantWALDir(name)
		// One span scope pairs this tenant's collector with its WAL: the
		// collector installs each sampled batch's trace there around the
		// journal append, and the WAL records wal_append/wal_fsync spans on it.
		scope := obs.NewSpanScope()
		wlog, err := wal.Open(dir, wal.Options{
			NumProcs:      nprocs,
			Sync:          policy,
			SnapshotEvery: *snapEvery,
			AppendTimer:   tel.WALAppend,
			FsyncTimer:    tel.WALFsync,
			SnapshotTimer: tel.WALSnapshot,
			Spans:         scope,
		})
		if err != nil {
			m.Close()
			return monitor.TenantResources{}, fmt.Errorf("wal open: %w", err)
		}
		if name == monitor.DefaultTenant {
			// The WAL's registry series have fixed names, so only one log
			// can own them; the per-tenant counts are served by the
			// tenant-labelled poetd_tenant_wal_events_total series instead.
			wlog.RegisterMetrics(reg)
		}
		if n := wlog.RecoveredEvents(); n > 0 {
			start := time.Now()
			// Every logged run was admitted before it was journaled and
			// nothing reads yet: dispatch record by record (a rejection is
			// still synchronous, and names its event) and barrier once.
			err := wlog.Replay(m.DeliverBatchAsync)
			m.IngestBarrier()
			if err != nil {
				if errors.Is(err, hct.ErrStoreFull) {
					// A log the store's limits refuse: the per-lane arena bound
					// is what it meets first, and more lanes share it out.
					err = fmt.Errorf("%w (restart with more -ingest-shards than %d)", err, m.Pipeline().IngestShards())
				}
				wlog.Close()
				m.Close()
				return monitor.TenantResources{}, fmt.Errorf("wal replay: %w", err)
			}
			// Warn, not Info: a recovery means the previous run did not shut
			// down cleanly, and operators filtering at warn should see it.
			logger.Warn("wal recovered",
				"tenant", name, "events", n, "dir", dir,
				"duration", time.Since(start).Round(time.Millisecond),
				"records", wlog.RecoveredRecords(), "torn_tail", wlog.TornTail())
		}
		// A durable tenant also serves its own history: QUERY@ reads the
		// monitor's store clamped to the watermark it held at the cutoff,
		// which the replay plane finds by counting the same WAL directory,
		// opened read-only.
		history, err := replay.OpenLive(dir, m.Pipeline(), replay.Options{Obs: tel})
		if err != nil {
			wlog.Close()
			m.Close()
			return monitor.TenantResources{}, fmt.Errorf("replay plane: %w", err)
		}
		logger.Info("replay plane enabled", "tenant", name, "dir", dir, "recorded_events", history.Events())
		res.Journal = wlog
		res.History = history
		res.WALEvents = wlog.Appended
		res.Spans = scope
		res.Close = func() error {
			history.Close()
			m.Close()
			if err := wlog.Close(); err != nil {
				return fmt.Errorf("wal close: %w", err)
			}
			logger.Info("wal closed", "tenant", name, "stats", wlog.Stats())
			return nil
		}
		return res, nil
	}

	srv, err := monitor.NewTenantServer(monitor.ServerConfig{
		FixedVector:  *fixed,
		MaxConns:     *maxConns,
		MaxBatch:     *maxBatch,
		SubmitQueue:  *queue,
		IdleTimeout:  *idle,
		WriteTimeout: *writeTO,
		Obs:          tel,
		Tenants: &monitor.TenantsConfig{
			New:                newTenant,
			MaxTenants:         *maxTenants,
			MaxEventsPerTenant: *tenantEvents,
		},
	})
	if err != nil {
		fatal("server init failed", err)
	}

	// Startup discovery: every tenant directory under the WAL root is a
	// namespace the previous run served — recover each now, so its durable
	// history is queryable before any client reselects it.
	if *walDir != "" {
		entries, err := os.ReadDir(*walDir)
		if err != nil && !os.IsNotExist(err) {
			fatal("wal root scan failed", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || !monitor.ValidTenantName(name) || name == monitor.DefaultTenant {
				continue
			}
			if _, err := srv.Tenant(name); err != nil {
				fatal("tenant recovery failed", err)
			}
		}
	}

	m := srv.Default().Monitor()
	if err := srv.Serve(ln); err != nil {
		fatal("serve failed", err)
	}
	logger.Info("monitoring",
		"procs", *procs, "addr", ln.Addr(), "strategy", *strat,
		"maxcs", *maxCS, "maxbatch", *maxBatch, "ingest_shards", m.IngestShards(),
		"tenants", srv.NumTenants(), "max_tenants", *maxTenants)
	if *walDir != "" {
		logger.Info("wal enabled", "dir", *walDir, "fsync", *fsync, "snapshot_every", *snapEvery, "legacy_layout", legacyRoot)
	}

	var ready atomic.Bool
	var admin *obs.AdminServer
	if *httpAddr != "" {
		ln, err := tcp.Listen(*httpAddr)
		if err != nil {
			fatal("admin http listen failed", err)
		}
		admin = adminPlane(srv, tel, ready.Load).Server()
		go func() {
			if err := admin.Serve(ln); err != nil {
				logger.Error("admin http server failed", "err", err)
			}
		}()
		logger.Info("admin http listening", "addr", ln.Addr())
	}
	ready.Store(true)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	ready.Store(false)
	logger.Info("draining", "grace", *grace, "tenants", srv.NumTenants())
	if err := srv.Shutdown(*grace); err != nil {
		fatal("shutdown failed", err)
	}
	if admin != nil {
		admin.Close()
	}
	for _, t := range srv.Tenants() { // Shutdown closes tenants, it does not unlist them
		st := t.Monitor().Stats(*fixed)
		logger.Info("final accounting",
			"tenant", t.Name(), "events", st.Events,
			"cluster_receives", st.ClusterReceives, "storage_ints", st.StorageInts)
	}
	logger.Info("final counters", "counters", srv.Counters())
}

// adminPlane is the admin HTTP surface over srv. /readyz answers 200 while
// serving says so and no tenant's write-ahead journal has failed: a journal
// failure fail-stops that tenant's ingest, and its /statusz block names the
// error.
func adminPlane(srv *monitor.Server, tel *obs.Telemetry, serving func() bool) obs.Admin {
	return obs.Admin{
		Registry: tel.Registry,
		Ready:    func() bool { return serving() && srv.JournalErr() == nil },
		Status:   func() any { return srv.Status() },
		Ops:      tel.Ops,
		Traces:   tel.Traces,
	}
}

// parseLevel maps the -log-level flag onto a slog level.
func parseLevel(s string) (slog.Level, bool) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

// legacyWALLayout reports whether dir is a pre-tenant WAL directory: one
// holding wal segments or snapshots directly rather than per-tenant
// subdirectories. Such a directory keeps serving as the default tenant's
// log, so daemons upgraded in place lose nothing.
func legacyWALLayout(dir string) bool {
	for _, pat := range []string{"wal-*.log", "snap-*.snap"} {
		if names, _ := filepath.Glob(filepath.Join(dir, pat)); len(names) > 0 {
			return true
		}
	}
	return false
}
