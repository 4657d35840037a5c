package main

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// bounds; the smoke test fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by; 0 means the metric gates nothing
}

// passMetrics is what a user of the daemon sees, measured by every pass on
// the real process with tracing off. Every metric exists on every workload.
//
// Only the metrics with a bound are BENCHMARK.json's end-to-end metrics. The
// rest were meant to be, and are demoted by the issue's own rule — a metric
// that cannot repeat within 15% gates nothing: between sets of ten runs of the
// same tree the box changed speed and their medians moved by 17–36% (see
// README, "Bounds"). The untraced run still prints them, and the traced run
// reports them per layer as daemon.<name>. setup_s moved by 23% but the
// benchmark contract requires it, so it has the contract's widest bound.
//
// Three checks of the issue's list are not here: wrong answers and failed
// operations are zero or the run is incorrect, and the timestamp-size ratio
// must equal the single-writer reference to the integer. Its value is
// reported under per-layer: it depends on the seed's clustering (0.089–0.152
// over ten seeds of rpc-fanin), which no bound of 15% holds.
var passMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_bytes_per_event", "B/event", "lower", 0.15},
	{"ingest_events_per_s", "events/s", "higher", 0},
	{"ack_p50_ms", "ms", "lower", 0},
	{"fresh_p50_ms", "ms", "lower", 0},
	{"query_p50_ms", "ms", "lower", 0},
	{"queries_per_s", "queries/s", "higher", 0},
	{"timetravel_s", "s", "lower", 0},
	{"recovery_s", "s", "lower", 0},
	{"daemon_cpu_us_per_event", "us/event", "lower", 0},
}

// endToEnd is the bounded part of passMetrics.
var endToEnd = func() []metricDef {
	var out []metricDef
	for _, m := range passMetrics {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}()

// perLayer comes from the traced run: each layer's public entry points are
// called directly with the workload's arrival batches, one rung of the
// ladder at a time (layers.go); daemon.* is one pass of the end-to-end
// scenario on the real daemon in the same run.
var perLayer = []metricDef{
	{"ts_size_ratio", "ratio", "lower", 0},

	{"daemon.ingest_events_per_s", "events/s", "higher", 0},
	{"daemon.ack_p50_ms", "ms", "lower", 0},
	{"daemon.fresh_p50_ms", "ms", "lower", 0},
	{"daemon.query_p50_ms", "ms", "lower", 0},
	{"daemon.queries_per_s", "queries/s", "higher", 0},
	{"daemon.timetravel_s", "s", "lower", 0},
	{"daemon.recovery_s", "s", "lower", 0},
	{"daemon.daemon_cpu_us_per_event", "us/event", "lower", 0},

	{"wire-sink.cpu_us_per_event", "us/event", "lower", 0},
	{"wire-sink.wall_ns_per_event", "ns/event", "lower", 0},
	{"fm.wall_ns_per_event", "ns/event", "lower", 0},
	{"hct.engine.wall_ns_per_event", "ns/event", "lower", 0},

	{"hct.pipeline.cpu_us_per_event", "us/event", "lower", 0},
	{"hct.pipeline.wall_ns_per_event", "ns/event", "lower", 0},
	{"hct.pipeline.planner_busy_share", "ratio", "lower", 0},
	{"hct.pipeline.dispatch_wait_share", "ratio", "lower", 0},
	{"hct.pipeline.cross_shard_waits", "count", "lower", 0},
	{"hct.pipeline.barrier_wait_ms", "ms", "lower", 0},
	{"hct.pipeline.shards1.wall_ns_per_event", "ns/event", "lower", 0},
	{"hct.pipeline.cluster_receives_per_event", "ratio", "lower", 0},
	{"hct.pipeline.merges", "count", "lower", 0},

	{"wal.append_cpu_us_per_event", "us/event", "lower", 0},
	{"wal.append_wall_ns_per_event", "ns/event", "lower", 0},
	{"wal.append_p50_us", "us", "lower", 0},
	{"wal.append_p99_us", "us", "lower", 0},
	{"wal.bytes_per_event", "B/event", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.always.wall_ns_per_event", "ns/event", "lower", 0},
	{"wal.never.wall_ns_per_event", "ns/event", "lower", 0},
	{"wal.open_recover_s", "s", "lower", 0},
	{"wal.replay_events_per_s", "events/s", "higher", 0},

	{"monitor.collector.cpu_us_per_event", "us/event", "lower", 0},
	{"monitor.collector.wall_ns_per_event", "ns/event", "lower", 0},
	{"monitor.collector.held_max", "count", "lower", 0},
	{"monitor.collector.runs", "count", "lower", 0},
	{"monitor.collector.events_per_run", "events", "higher", 0},

	{"monitor.server.cpu_us_per_event", "us/event", "lower", 0},
	{"monitor.server.wall_ns_per_event", "ns/event", "lower", 0},
	{"monitor.server.wal_append_ns_per_event", "ns/event", "lower", 0},
	{"monitor.server.wire_bytes_per_event", "B/event", "lower", 0},
	{"monitor.server.frames", "count", "lower", 0},
	{"monitor.server.query_wire_us_per_batch", "us", "lower", 0},
	{"monitor.server.ack_p99_ms", "ms", "lower", 0},
	{"monitor.server.ack_max_ms", "ms", "lower", 0},
	{"monitor.server.max_rate_under_limit_events_per_s", "events/s", "higher", 0},

	{"monitor.queries.ns_per_query", "ns", "lower", 0},
	{"monitor.queries.ns_per_query_ingesting", "ns", "lower", 0},
	{"monitor.queries.cut_us", "us", "lower", 0},
	{"monitor.queries.direct_share", "ratio", "higher", 0},

	{"replay.open_s", "s", "lower", 0},
	{"replay.view_forward_ms_per_million", "ms", "lower", 0},
	{"replay.view_backward_ms", "ms", "lower", 0},
	{"replay.query_ns", "ns", "lower", 0},

	{"obs.overhead_pct", "%", "lower", 0},

	{"runtime.allocs_per_event", "count", "lower", 0},
	{"runtime.heap_bytes_per_event", "B/event", "lower", 0},
	{"runtime.gc_pause_p99_ms", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},

	{"loadgen.lateness_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_us_per_event", "us/event", "lower", 0},
	{"loadgen.input_gen_s", "s", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"budget.reconcile_pct", "%", "lower", 0},
}
