package monitor

import (
	"strconv"
	"time"

	"repro/internal/hct"
	"repro/internal/obs"
)

// This file is the server's live observability surface: the derived series
// registered on the obs.Registry (served at /metrics) beside the server's
// own counters, and the JSON document served at /statusz. Both read what
// the STATS protocol verb reads — the server's throughput instruments, the
// monitor's O(1) accounting, and the journal's instruments — so every plane
// reports the same numbers.

// registerMetrics exposes what the server derives at scrape time — the
// pipeline's tallies, the per-tenant and per-lane vectors and the paper's
// Section 4 metrics — on reg; the throughput counters registered themselves
// when the server made them. Called once, when the config carries a
// telemetry with a registry.
func (s *Server) registerMetrics(reg *obs.Registry) {
	counter := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	reg.GaugeFunc("poetd_collector_held", "Events buffered in the default tenant's collector awaiting deliverability.",
		func() float64 { return float64(s.def.collector.Held()) })
	reg.GaugeFunc("poetd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Tenant instruments: the namespace count plus one tenant-labelled
	// series per ingest/query/WAL/backlog axis. The scrape closures reuse
	// their value maps across scrapes like the other vector gauges; tenant
	// names are already interned strings, so no per-scrape label churn.
	reg.GaugeFunc("poet_tenants", "Live tenant namespaces served.",
		func() float64 { return float64(s.NumTenants()) })
	type vecFunc = func(name, help, label string, fn func() map[string]float64)
	tenantVec := func(register vecFunc, name, help string, v func(t *Tenant) float64) {
		vals := make(map[string]float64)
		register(name, help, "tenant", func() map[string]float64 {
			clear(vals)
			for _, t := range s.Tenants() {
				vals[t.name] = v(t)
			}
			return vals
		})
	}
	tenantVec(reg.CounterVecFunc, "poetd_tenant_events_ingested_total", "Events accepted into each tenant's collector (recovered events included).",
		func(t *Tenant) float64 { return float64(t.accepted.Load()) })
	tenantVec(reg.CounterVecFunc, "poetd_tenant_queries_answered_total", "Individual precedence queries answered per tenant (live and replay).",
		func(t *Tenant) float64 { return float64(t.queries.Load()) })
	tenantVec(reg.GaugeVecFunc, "poetd_tenant_collector_held", "Events buffered in each tenant's collector awaiting deliverability.",
		func(t *Tenant) float64 { return float64(t.collector.Held()) })
	tenantVec(reg.CounterVecFunc, "poetd_tenant_wal_events_total", "Events appended to each tenant's write-ahead log (0 when not durable).",
		func(t *Tenant) float64 {
			if t.walEvents == nil {
				return 0
			}
			return float64(t.walEvents())
		})

	// Ingest-shard instruments.
	pipe := s.def.monitor.Pipeline()
	reg.GaugeFunc("poetd_ingest_shards", "Configured ingest shards (stamping lanes). Above one, the plan stage (the cluster decisions; admission always runs on the submitter) runs on its own goroutine; at one, inline on the submitter.",
		func() float64 { return float64(pipe.IngestShards()) })
	counter("poetd_cross_shard_waits_total",
		"Cross-shard rendezvous waits that actually blocked a stamping lane.",
		pipe.CrossShardWaits)
	reg.GaugeFunc("poetd_planner_occupancy", "Fraction of wall time the planner goroutine spent planning (0 at one ingest shard).",
		pipe.PlannerOccupancy)
	reg.CounterFunc("poetd_planner_busy_seconds_total", "Cumulative seconds the planner goroutine spent planning.",
		func() float64 { return pipe.PlannerBusy().Seconds() })
	reg.GaugeFunc("poetd_plan_queue_batches", "Batches accepted onto the plan queue but not yet planned.",
		func() float64 { return float64(pipe.PlanQueueDepth()) })
	// The per-lane vectors reuse their snapshot buffer and value map across
	// scrapes, like the cluster-size vector; the label strings are fixed with
	// the lane count.
	laneLabels := make([]string, pipe.IngestShards())
	for i := range laneLabels {
		laneLabels[i] = strconv.Itoa(i)
	}
	laneVec := func(register vecFunc, name, help, label string, into func([]uint64) []uint64) {
		var buf []uint64
		vals := make(map[string]float64)
		register(name, help, label, func() map[string]float64 {
			buf = into(buf[:0])
			for i, n := range buf {
				vals[laneLabels[i]] = float64(n)
			}
			return vals
		})
	}
	laneVec(reg.CounterVecFunc, "poetd_ingest_shard_events_total", "Events dispatched to each ingest shard.", "shard",
		pipe.ShardEventsInto)
	laneVec(reg.GaugeVecFunc, "poetd_lane_queue_depth", "Items flushed to each stamping lane and not yet stamped; a depth that stays put while events arrive is a stalled lane.", "lane",
		pipe.LaneQueueDepthsInto)

	// Physical store instruments, to read beside poetd_ts_size_ratio: that
	// gauge is the paper's fixed-vector model, these are the bytes and frames
	// the column store really holds (default tenant).
	reg.GaugeFunc("poetd_store_vector_bytes", "Bytes carved from the lane arenas for projections, keyframes, delta and nibble frames.",
		func() float64 { return float64(pipe.StoreStats().VectorBytes) })
	reg.GaugeFunc("poetd_store_cell_bytes", "Bytes of stored cells: 4 per stamped event.",
		func() float64 { return float64(pipe.StoreStats().CellBytes) })
	reg.GaugeFunc("poetd_store_note_bytes", "Bytes of cluster-receive notes: 12 per noted cluster receive.",
		func() float64 { return float64(pipe.StoreStats().NoteBytes) })
	reg.GaugeFunc("poetd_store_epochs", "Cluster epochs in the table the stored cells index.",
		func() float64 { return float64(pipe.StoreStats().Epochs) })
	reg.GaugeFunc("poetd_store_proj_keyframes", "Projections stored as a keyframe (raw elements and a zero frame over them).",
		func() float64 { return float64(pipe.StoreStats().ProjKeyframes) })
	reg.GaugeFunc("poetd_store_proj_frames", "Projections stored as byte offsets above an earlier keyframe of the same process and epoch; each becomes its process's anchor.",
		func() float64 { return float64(pipe.StoreStats().ProjFrames) })
	reg.GaugeFunc("poetd_store_proj_nibble_frames", "Projections stored as nibble offsets above their process's anchor: its latest byte frame, or its keyframe's zero frame.",
		func() float64 { return float64(pipe.StoreStats().ProjNibbleFrames) })
	reg.GaugeFunc("poetd_store_proj_shared", "Sends and unary events whose cell names the frame of the projection before it: stored without a vector.",
		func() float64 { return float64(pipe.StoreStats().ProjShared) })
	counter("poetd_cr_keyframes_total", "Noted cluster receives stored as a key: a raw keyframe (a full vector), or a 16-bit key over one.",
		func() int64 { return pipe.StoreStats().Keyframes })
	counter("poetd_cr_wide_keys_total", "Of the cluster-receive keyframes, the 16-bit keys: 16-bit offsets above their process's raw keyframe.",
		func() int64 { return pipe.StoreStats().WideKeys })
	counter("poetd_cr_delta_frames_total", "Noted cluster receives stored as byte offsets above their process's key; each becomes its process's anchor.",
		func() int64 { return pipe.StoreStats().DeltaFrames })
	counter("poetd_cr_nibble_frames_total", "Noted cluster receives stored as nibble offsets above their process's anchor: its latest delta frame or its keyframe.",
		func() int64 { return pipe.StoreStats().NibbleFrames })
	counter("poetd_cr_sparse_frames_total", "Of the delta and nibble frames, those stored sparse: a bitmap of the components that moved and only their offsets.",
		func() int64 { return pipe.StoreStats().SparseFrames })

	// What the Go runtime holds, to read beside the poetd_store_*_bytes above:
	// the resident set's share that is not the store.
	obs.RegisterRuntime(reg)

	// The paper's Section 4 metrics as live instruments (default tenant —
	// the per-tenant breakdown lives on /statusz). Each reads one accounting
	// snapshot per evaluation.
	m := s.def.monitor
	fixed := s.cfg.FixedVector
	reg.GaugeFunc("poetd_ts_size_ratio",
		"Mean timestamp size relative to a fixed Fidge/Mattern vector (Section 4; 1.0 = no clustering benefit).",
		func() float64 { return m.pipe.Result().AverageRatio(fixed) })
	reg.GaugeFunc("poetd_clusters_live", "Live clusters in the process partition.",
		func() float64 { return float64(m.pipe.Result().LiveClusters) })
	reg.GaugeFunc("poetd_cluster_size_max", "Size of the largest live cluster.",
		func() float64 { return float64(m.pipe.Result().MaxLiveCluster) })
	reg.GaugeFunc("poetd_cluster_size_mean", "Mean live cluster size.",
		func() float64 {
			a := m.pipe.Result()
			if a.LiveClusters == 0 {
				return 0
			}
			return float64(m.NumProcs()) / float64(a.LiveClusters)
		})
	// The scrape is allocation-free in the steady state: GaugeVecFunc
	// serializes fn with its own rendering, so the counts, the returned
	// map and the size->label strings are all reused across scrapes.
	sizeCounts := make(map[int]int)
	sizeVals := make(map[string]float64)
	sizeLabels := make(map[int]string)
	reg.GaugeVecFunc("poetd_cluster_size_count", "Live clusters by size.", "size",
		func() map[string]float64 {
			m.clusterSizesInto(sizeCounts)
			clear(sizeVals)
			for size, n := range sizeCounts {
				lbl, ok := sizeLabels[size]
				if !ok {
					lbl = strconv.Itoa(size)
					sizeLabels[size] = lbl
				}
				sizeVals[lbl] = float64(n)
			}
			return sizeVals
		})
	counter("poetd_cluster_merges_total", "Cluster merges performed by the strategy.",
		func() int64 { return int64(m.pipe.Result().Merges) })
	counter("poetd_cluster_receives_total", "Noted (full-vector) cluster receives.",
		func() int64 { return int64(m.pipe.Result().ClusterReceives) })
	counter("poetd_merged_cluster_receives_total", "Cluster receives that triggered a merge.",
		func() int64 { return int64(m.pipe.Result().MergedReceives) })
	counter("poetd_monitor_events_total", "Events timestamped by the monitor.",
		func() int64 { return int64(m.pipe.Result().Events) })
	counter("poetd_precedes_cluster_hits_total",
		"Precedence evaluations answered from the target's own cluster epoch (greatest-cluster-first fast path).",
		func() int64 { direct, _ := m.QueryPathCounts(); return direct })
	counter("poetd_precedes_cr_routed_total",
		"Precedence evaluations routed through the noted cluster receives.",
		func() int64 { _, routed := m.QueryPathCounts(); return routed })
	reg.GaugeFunc("poetd_greatest_cluster_first_hit_rate",
		"Fraction of precedence evaluations answered without consulting cluster receives.",
		func() float64 {
			direct, routed := m.QueryPathCounts()
			if direct+routed == 0 {
				return 0
			}
			return float64(direct) / float64(direct+routed)
		})
}

// PaperStatus is the /statusz block that maps the paper's Section 4
// evaluation onto the live system.
type PaperStatus struct {
	TimestampSizeRatio      float64     `json:"timestamp_size_ratio"`
	FixedVector             int         `json:"fixed_vector"`
	MaxClusterSize          int         `json:"max_cluster_size"`
	ClustersLive            int         `json:"clusters_live"`
	ClusterSizeMax          int         `json:"cluster_size_max"`
	ClusterSizeCounts       map[int]int `json:"cluster_size_counts"`
	ClusterMerges           int         `json:"cluster_merges"`
	ClusterReceives         int         `json:"cluster_receives"`
	MergedClusterReceives   int         `json:"merged_cluster_receives"`
	GreatestClusterHitRate  float64     `json:"greatest_cluster_first_hit_rate"`
	PrecedesClusterHits     int64       `json:"precedes_cluster_hits"`
	PrecedesClusterReceives int64       `json:"precedes_cr_routed"`
}

// StoreStatus is the /statusz block for what the column store physically
// holds — the counterpart of PaperStatus's fixed-vector model — and how far
// each stamping lane is behind the planner.
type StoreStatus struct {
	hct.StoreStats
	LaneQueueDepth []uint64 `json:"lane_queue_depth"`
}

func storeStatus(m *Monitor) StoreStatus {
	pipe := m.Pipeline()
	return StoreStatus{StoreStats: pipe.StoreStats(), LaneQueueDepth: pipe.LaneQueueDepthsInto(nil)}
}

// MemoryStatus is the /statusz block that sets the Go runtime's memory classes
// (obs.RuntimeMemory, read when the document is asked for) beside the bytes and
// events the stores of all tenants account for, so the share of the process's
// memory that is not store — runtime metadata, stacks, garbage, the live heap
// of everything else — can be read off a running daemon per event.
type MemoryStatus struct {
	Runtime          map[string]uint64 `json:"runtime"`
	StoreVectorBytes int64             `json:"store_vector_bytes"`
	StoreCellBytes   int64             `json:"store_cell_bytes"`
	StoreNoteBytes   int64             `json:"store_note_bytes"`
	Events           int64             `json:"events"`
}

// TenantStatus is one namespace's block in the /statusz document: its
// throughput accounting plus the paper's Section 4 gauges evaluated over
// that tenant's store alone.
type TenantStatus struct {
	Events    int64       `json:"events"`
	Queries   int64       `json:"queries"`
	Held      int         `json:"collector_held"`
	WALEvents uint64      `json:"wal_events,omitempty"`
	Paper     PaperStatus `json:"paper"`
	Store     StoreStatus `json:"store"`
	// History is present when the tenant's history provider reports one.
	History *HistoryStatus `json:"history,omitempty"`
	// JournalError names the write-ahead journal failure that fail-stopped
	// the tenant's ingest; empty while the journal is healthy.
	JournalError string `json:"journal_error,omitempty"`
}

// ServerStatus is the JSON document behind /statusz.
type ServerStatus struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Events        int                     `json:"events"`
	Held          int                     `json:"collector_held"`
	Paper         PaperStatus             `json:"paper"`
	Store         StoreStatus             `json:"store"`
	Memory        MemoryStatus            `json:"memory"`
	Tenants       map[string]TenantStatus `json:"tenants"`
	Counters      struct {
		EventsIngested, BatchesIngested, QueriesAnswered, QueryFrames int64
		FramesRead, ProtocolErrors, ConnsAccepted, ConnsRejected      int64
	} `json:"counters"`
	Rates struct {
		EventsPerSec, BatchesPerSec, QueriesPerSec float64
	} `json:"rates_since_start"`
	Latency map[string]obs.DurationSummary `json:"latency,omitempty"`
}

// paperStatus evaluates the paper's Section 4 gauges over one monitor and
// its accounting snapshot a.
func paperStatus(m *Monitor, a hct.Result, fixed int) PaperStatus {
	direct, routed := m.QueryPathCounts()
	hitRate := 0.0
	if direct+routed > 0 {
		hitRate = float64(direct) / float64(direct+routed)
	}
	return PaperStatus{
		TimestampSizeRatio:      a.AverageRatio(fixed),
		FixedVector:             fixed,
		MaxClusterSize:          a.MaxClusterSize,
		ClustersLive:            a.LiveClusters,
		ClusterSizeMax:          a.MaxLiveCluster,
		ClusterSizeCounts:       m.clusterSizes(),
		ClusterMerges:           a.Merges,
		ClusterReceives:         a.ClusterReceives,
		MergedClusterReceives:   a.MergedReceives,
		GreatestClusterHitRate:  hitRate,
		PrecedesClusterHits:     direct,
		PrecedesClusterReceives: routed,
	}
}

// Status assembles the live status document. The top-level Events/Held/Paper
// block reports the default tenant (backward compatible); Tenants carries
// the per-namespace breakdown. Latency summaries are present only when the
// server is instrumented. Each tenant's accounting is read once, as one
// snapshot, for its block and the default's for the top level.
func (s *Server) Status() ServerStatus {
	def := s.def.monitor.pipe.Result()
	st := ServerStatus{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Events:        def.Events,
		Held:          s.def.collector.Held(),
		Paper:         paperStatus(s.def.monitor, def, s.cfg.FixedVector),
		Store:         storeStatus(s.def.monitor),
		Memory:        MemoryStatus{Runtime: obs.RuntimeMemory()},
		Tenants:       make(map[string]TenantStatus),
	}
	c := &s.counters
	st.Counters.EventsIngested = c.EventsIngested.Value()
	st.Counters.BatchesIngested = c.BatchesIngested.Value()
	st.Counters.QueriesAnswered = c.QueriesAnswered.Value()
	st.Counters.QueryFrames = c.QueryFrames.Value()
	st.Counters.FramesRead = c.FramesRead.Value()
	st.Counters.ProtocolErrors = c.ProtocolErrors.Value()
	st.Counters.ConnsAccepted = c.ConnsAccepted.Value()
	st.Counters.ConnsRejected = c.ConnsRejected.Value()
	st.Rates.EventsPerSec = s.perSec(c.EventsIngested)
	st.Rates.BatchesPerSec = s.perSec(c.BatchesIngested)
	st.Rates.QueriesPerSec = s.perSec(c.QueriesAnswered)
	for _, t := range s.Tenants() {
		a := t.monitor.pipe.Result()
		ts := TenantStatus{
			Events:  t.accepted.Load(),
			Queries: t.queries.Load(),
			Held:    t.collector.Held(),
			Paper:   paperStatus(t.monitor, a, s.cfg.FixedVector),
			Store:   storeStatus(t.monitor),
		}
		if t.walEvents != nil {
			ts.WALEvents = t.walEvents()
		}
		if err := t.collector.journalFailure(); err != nil {
			ts.JournalError = err.Error()
		}
		if h, ok := t.history.(interface{ HistoryStatus() HistoryStatus }); ok {
			hs := h.HistoryStatus()
			ts.History = &hs
		}
		st.Tenants[t.name] = ts
		st.Memory.StoreVectorBytes += ts.Store.VectorBytes
		st.Memory.StoreCellBytes += ts.Store.CellBytes
		st.Memory.StoreNoteBytes += ts.Store.NoteBytes
		st.Memory.Events += int64(a.Events)
	}
	if o := s.obs; o != nil {
		st.Latency = map[string]obs.DurationSummary{
			"ingest_batch":     o.IngestBatch.DurationSummary(),
			"deliver_batch":    o.DeliverBatch.DurationSummary(),
			"query_batch":      o.QueryBatch.DurationSummary(),
			"decode_frame":     o.DecodeFrame.DurationSummary(),
			"wal_append":       o.WALAppend.DurationSummary(),
			"wal_fsync":        o.WALFsync.DurationSummary(),
			"cross_shard_wait": o.CrossShardWait.DurationSummary(),
		}
	}
	return st
}
