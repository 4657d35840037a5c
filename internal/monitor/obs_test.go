package monitor

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hct"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// newInstrumentedServer builds a server carrying a fresh telemetry set.
func newInstrumentedServer(t testing.TB, numProcs int) (*Server, *obs.Telemetry) {
	t.Helper()
	m, err := New(numProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.NewTelemetry(obs.NewRegistry())
	srv := NewServer(m, ServerConfig{FixedVector: numProcs, Obs: tel})
	return srv, tel
}

// TestServerTelemetry drives an instrumented server over loopback with
// batched and one-event frames and checks that every hot-path instrument observed the traffic
// and that the registry exposes the paper's gauges with live values.
func TestServerTelemetry(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 600, 11)
	srv, tel := newInstrumentedServer(t, tr.NumProcs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Batched events and queries.
	sess, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cut := len(tr.Events) / 2
	for lo := 0; lo < cut; lo += 64 {
		hi := lo + 64
		if hi > cut {
			hi = cut
		}
		if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 40; k++ {
		a := tr.Events[(k*13)%cut].ID
		b := tr.Events[(k*37)%cut].ID
		if _, err := sess.Precedes(a, b); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	// One-event frames on a second connection go through the same instruments.
	single, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events[cut:] {
		if err := single.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := single.Precedes(tr.Events[cut].ID, tr.Events[cut+1].ID); err != nil {
		t.Fatal(err)
	}
	single.Close()

	for name, h := range map[string]*obs.Histogram{
		"IngestBatch":  tel.IngestBatch,
		"DeliverBatch": tel.DeliverBatch,
		"QueryBatch":   tel.QueryBatch,
		"DecodeFrame":  tel.DecodeFrame,
		"RunEvents":    tel.RunEvents,
	} {
		if s := h.Summary(); s.Count == 0 {
			t.Errorf("histogram %s observed nothing", name)
		}
	}
	if tel.Ops.Total() == 0 {
		t.Error("trace ring recorded no ops")
	}
	if len(tel.Ops.Slowest(50)) == 0 {
		t.Fatal("Slowest(50) is empty after load")
	}
	kinds := map[string]bool{}
	for _, op := range tel.Ops.Snapshot() {
		kinds[op.Kind] = true
	}
	if !kinds[obs.OpIngest] || !kinds[obs.OpQuery] {
		t.Errorf("trace kinds %v missing ingest or query", kinds)
	}

	runtime.GC() // heap-live is what the last collection marked: there has to have been one
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		"poetd_ingest_batch_seconds_bucket",
		"poetd_query_batch_seconds_count",
		"poetd_events_ingested_total",
		"poetd_ts_size_ratio",
		"poetd_clusters_live",
		"poetd_cluster_size_count{size=",
		"poetd_cluster_merges_total",
		"poetd_greatest_cluster_first_hit_rate",
		"poetd_store_vector_bytes",
		"poetd_store_cell_bytes",
		"poetd_store_note_bytes",
		"poetd_store_epochs",
		"poetd_store_proj_keyframes",
		"poetd_store_proj_frames",
		"poetd_store_proj_shared",
		"poetd_cr_keyframes_total",
		"poetd_cr_delta_frames_total",
		"poetd_cr_nibble_frames_total",
		"poetd_cr_sparse_frames_total",
		"poetd_lane_queue_depth{lane=",
		"poetd_runtime_heap_live_bytes",
		"poetd_runtime_heap_objects_bytes",
		"poetd_runtime_heap_released_bytes",
		"poetd_runtime_gc_metadata_bytes",
		"poetd_runtime_stack_bytes",
		"poetd_runtime_goroutines",
		"poetd_runtime_heap_allocs_bytes",
		"poetd_runtime_gc_cycles",
		"poetd_runtime_heap_goal_bytes",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("registry exposition missing %q", series)
		}
		// The runtime's are read at the scrape, and a running server has a
		// heap, stacks and goroutines, has allocated and has collected (the
		// runtime.GC above); only what was released may be nothing.
		if strings.HasPrefix(series, "poetd_runtime_") && series != "poetd_runtime_heap_released_bytes" && strings.Contains(out, series+" 0\n") {
			t.Errorf("%s reads 0 on a serving daemon", series)
		}
	}
	if strings.Contains(out, "poetd_events_ingested_total 0\n") {
		t.Error("events_ingested_total still 0 after load")
	}
	if strings.Contains(out, "poetd_ts_size_ratio 0\n") {
		t.Error("ts_size_ratio still 0 after load")
	}

	st := srv.Status()
	if st.Events != len(tr.Events) {
		t.Errorf("Status.Events = %d, want %d", st.Events, len(tr.Events))
	}
	r := st.Paper.TimestampSizeRatio
	if r <= 0 || r > 1.5 {
		t.Errorf("Status timestamp_size_ratio = %v, want sane positive ratio", r)
	}
	if st.Paper.ClustersLive <= 0 || st.Paper.ClusterSizeMax <= 0 {
		t.Errorf("Status cluster fields not live: %+v", st.Paper)
	}
	if st.Paper.PrecedesClusterHits+st.Paper.PrecedesClusterReceives == 0 {
		t.Error("Status query-path counters are zero after queries")
	}
	// The physical side: every noted cluster receive is one frame or
	// keyframe, every other event one of a projection's — on /statusz and on
	// /metrics — and the store has carved at least two elements for every event
	// that does not share its predecessor's frame.
	if got := st.Store.Keyframes + st.Store.DeltaFrames + st.Store.NibbleFrames; got != int64(st.Paper.ClusterReceives) {
		t.Errorf("Status store = %+v: keyframes + delta frames + nibble frames want the %d noted cluster receives", st.Store, st.Paper.ClusterReceives)
	}
	if st.Store.SparseFrames > st.Store.DeltaFrames+st.Store.NibbleFrames || !strings.Contains(out, fmt.Sprintf("poetd_cr_sparse_frames_total %d\n", st.Store.SparseFrames)) ||
		!strings.Contains(out, fmt.Sprintf("poetd_cr_nibble_frames_total %d\n", st.Store.NibbleFrames)) {
		t.Errorf("Status store = %+v: sparse frames are a subset of the delta and nibble frames, and /metrics reads them and the nibble frames as /statusz does", st.Store)
	}
	if got := st.Store.ProjKeyframes + st.Store.ProjFrames + st.Store.ProjShared + st.Store.Keyframes + st.Store.DeltaFrames + st.Store.NibbleFrames; got != int64(len(tr.Events)) || st.Store.ProjKeyframes == 0 || st.Store.ProjFrames == 0 || st.Store.ProjShared == 0 {
		t.Errorf("Status store = %+v: proj_keyframes + proj_frames + proj_shared + cr_keyframes + cr_delta_frames + cr_nibble_frames = %d, want the %d events, with projections of all three kinds", st.Store, got, len(tr.Events))
	}
	for series, want := range map[string]int64{"poetd_store_proj_keyframes": st.Store.ProjKeyframes, "poetd_store_proj_frames": st.Store.ProjFrames, "poetd_store_proj_shared": st.Store.ProjShared} {
		if !strings.Contains(out, fmt.Sprintf("%s %d\n", series, want)) {
			t.Errorf("/metrics %s does not read %d as /statusz does", series, want)
		}
	}
	if carved := int64(len(tr.Events)) - st.Store.ProjShared; st.Store.VectorBytes < 8*carved {
		t.Errorf("Status store vector_bytes = %d for the %d events that carved a vector", st.Store.VectorBytes, carved)
	}
	if want := 4 * int64(len(tr.Events)); st.Store.CellBytes != want || !strings.Contains(out, fmt.Sprintf("poetd_store_cell_bytes %d\n", want)) {
		t.Errorf("Status store cell_bytes = %d, want 4 x %d events = %d on /statusz and /metrics", st.Store.CellBytes, len(tr.Events), want)
	}
	if st.Store.NoteBytes != 12*int64(st.Paper.ClusterReceives) || st.Store.Epochs < int64(st.Paper.ClusterMerges) {
		t.Errorf("Status store = %+v: want 12 note bytes for each of the %d noted cluster receives and an epoch for each of the %d merges",
			st.Store, st.Paper.ClusterReceives, st.Paper.ClusterMerges)
	}
	// The memory block: the runtime's nine beside the one tenant's store bytes.
	if mem := st.Memory; len(mem.Runtime) != 9 || mem.Runtime["heap_live_bytes"] == 0 || mem.Runtime["goroutines"] == 0 ||
		mem.StoreVectorBytes != st.Store.VectorBytes || mem.StoreCellBytes != st.Store.CellBytes || mem.StoreNoteBytes != st.Store.NoteBytes || mem.Events != int64(len(tr.Events)) {
		t.Errorf("Status memory = %+v beside store %+v and %d events", mem, st.Store, len(tr.Events))
	}
	if lanes := srv.def.monitor.IngestShards(); len(st.Store.LaneQueueDepth) != lanes {
		t.Errorf("Status lane_queue_depth lists %d lanes, want %d", len(st.Store.LaneQueueDepth), lanes)
	}
	lat, present := st.Latency["ingest_batch"]
	if !present || lat.Count == 0 {
		t.Errorf("Status latency[ingest_batch] = %+v, want observations", lat)
	}
}

// TestScrapeSeriesCountsStable is the scrape-hygiene check over every family
// (ROADMAP 6(e)): a 4-lane, two-tenant instrumented server is scraped three
// times — twice while a client streams events, once after — and every sample
// name must render the same number of series each time. A family that grows
// per scrape (as poetd_ingest_shard_events_total once did, by one set of lane
// series each) or with the store fails here whichever family it is. The
// monitors never merge, so the one data-dependent label set, cluster sizes,
// holds still too.
func TestScrapeSeriesCountsStable(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 3000, 11)
	const lanes = 4
	tel := obs.NewTelemetry(obs.NewRegistry())
	srv, err := NewTenantServer(ServerConfig{FixedVector: tr.NumProcs, Obs: tel, Tenants: &TenantsConfig{
		New: func(string) (TenantResources, error) {
			m, err := NewSharded(tr.NumProcs, hct.Config{MaxClusterSize: 13}, lanes)
			if err != nil {
				return TenantResources{}, err
			}
			return TenantResources{Monitor: m, Close: func() error { m.Close(); return nil }}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Tenant("second"); err != nil {
		t.Fatal(err)
	}

	scrape := func() map[string]int {
		var sb strings.Builder
		if err := tel.Registry.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		series := make(map[string]int)
		for _, line := range strings.Split(sb.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			series[line[:strings.IndexAny(line, "{ ")]]++
		}
		return series
	}

	// The client announces a quarter and three quarters of the stream and
	// waits for the scrape that follows, so both land between ingested runs.
	at := make(chan struct{})
	quarter := len(tr.Events) / 4 / 32 * 32
	ingestErr := make(chan error, 1)
	go func() {
		ingestErr <- func() error {
			sess, err := DialV2(addr.String())
			if err != nil {
				return err
			}
			defer sess.Close()
			for lo := 0; lo < len(tr.Events); lo += 32 {
				hi := min(lo+32, len(tr.Events))
				for _, tenant := range []string{DefaultTenant, "second"} {
					if err := sess.SelectTenant(tenant); err != nil {
						return err
					}
					if err := sess.ReportBatch(tr.Events[lo:hi]); err != nil {
						return err
					}
				}
				if lo == quarter || lo == 3*quarter {
					at <- struct{}{}
					at <- struct{}{}
				}
			}
			return nil
		}()
	}()

	var scrapes []map[string]int
	for len(scrapes) < 2 {
		select {
		case <-at:
			scrapes = append(scrapes, scrape())
			<-at
		case err := <-ingestErr:
			t.Fatalf("ingest ended before the second scrape: %v", err)
		}
	}
	if err := <-ingestErr; err != nil {
		t.Fatal(err)
	}
	scrapes = append(scrapes, scrape())

	first := scrapes[0]
	for k, later := range scrapes[1:] {
		for name, n := range first {
			if later[name] != n {
				t.Errorf("%s renders %d series on scrape 1 and %d on scrape %d", name, n, later[name], k+2)
			}
		}
		for name, n := range later {
			if _, ok := first[name]; !ok {
				t.Errorf("%s appears on scrape %d (%d series) and not on scrape 1", name, k+2, n)
			}
		}
	}
	for name, want := range map[string]int{
		"poetd_lane_queue_depth":               lanes,
		"poetd_ingest_shard_events_total":      lanes,
		"poetd_tenant_events_ingested_total":   2,
		"poetd_cluster_size_count":             1,
		"poetd_history_views_total":            1,
		"poetd_history_counted_events_total":   1,
		"poetd_history_cover_waits_total":      1,
		"poetd_replay_materialize_seconds_sum": 1,
		"poetd_store_proj_keyframes":           1,
		"poetd_store_proj_frames":              1,
		"poetd_store_proj_shared":              1,
	} {
		if first[name] != want {
			t.Errorf("%s renders %d series, want %d", name, first[name], want)
		}
	}
}

// TestTotalFamiliesAreCounters holds the exposition to its own naming: in
// both dialects a sample whose name ends in _total belongs to a family typed
// counter, and no family typed gauge has one — the per-tenant and per-shard
// totals are vectors, and a vector can be a counter too.
func TestTotalFamiliesAreCounters(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 300, 11)
	tel := obs.NewTelemetry(obs.NewRegistry())
	srv, err := NewTenantServer(ServerConfig{FixedVector: tr.NumProcs, Obs: tel, Tenants: &TenantsConfig{
		New: func(string) (TenantResources, error) {
			m, err := NewSharded(tr.NumProcs, hct.Config{MaxClusterSize: 13}, 2)
			if err != nil {
				return TenantResources{}, err
			}
			return TenantResources{Monitor: m, Close: func() error { m.Close(); return nil }}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	second, err := srv.Tenant("second")
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []*Tenant{srv.Default(), second} {
		if _, err := srv.submitInstrumented(tenant, tr.Events, nil); err != nil {
			t.Fatal(err)
		}
	}

	for dialect, write := range map[string]func(io.Writer) error{
		"classic":     tel.Registry.WritePrometheus,
		"openmetrics": tel.Registry.WriteOpenMetrics,
	} {
		var sb strings.Builder
		if err := write(&sb); err != nil {
			t.Fatal(err)
		}
		family, typ, totals := "", "", 0
		for _, line := range strings.Split(sb.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				family, typ, _ = strings.Cut(rest, " ")
				if typ == "gauge" && strings.HasSuffix(family, "_total") {
					t.Errorf("%s: family %s is typed gauge", dialect, family)
				}
				continue
			}
			if line == "" || line[0] == '#' {
				continue
			}
			if sample := line[:strings.IndexAny(line, "{ ")]; strings.HasSuffix(sample, "_total") {
				totals++
				if typ != "counter" {
					t.Errorf("%s: sample %s belongs to family %s, typed %s", dialect, sample, family, typ)
				}
			}
		}
		if totals < 30 {
			t.Errorf("%s: only %d _total samples rendered", dialect, totals)
		}
	}
}

// TestMonitorAccountingRatio cross-checks the closed-form scrape-time ratio
// against the full Stats walk the experiments use.
func TestMonitorAccountingRatio(t *testing.T) {
	tr := workload.RandomSparse(16, 4, 800, 3)
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 5, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	const fixed = 16
	got := m.Accounting().AverageRatio(fixed)
	st := m.Stats(fixed)
	want := float64(st.StorageInts) / (float64(st.Events) * fixed)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Accounting ratio %v != Stats.AverageRatio %v", got, want)
	}

	sizes := m.ClusterSizes()
	total := 0
	for size, n := range sizes {
		if size <= 0 || n <= 0 {
			t.Fatalf("nonsense cluster size entry %d:%d", size, n)
		}
		total += size * n
	}
	if total != tr.NumProcs {
		t.Fatalf("cluster sizes cover %d processes, want %d", total, tr.NumProcs)
	}
}

// TestUninstrumentedServerUnchanged makes sure a server without telemetry
// still works and never touches obs state.
func TestUninstrumentedServerUnchanged(t *testing.T) {
	tr := workload.RandomSparse(8, 2, 200, 5)
	m, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, ServerConfig{FixedVector: tr.NumProcs})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ReportBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Precedes(tr.Events[0].ID, tr.Events[1].ID); err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	if st.Latency != nil {
		t.Fatalf("uninstrumented Status carries latency block: %+v", st.Latency)
	}
	if st.Events != len(tr.Events) {
		t.Fatalf("Status.Events = %d, want %d", st.Events, len(tr.Events))
	}
}
