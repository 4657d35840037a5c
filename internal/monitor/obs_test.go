package monitor

import (
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

// TestServerTelemetry drives an instrumented server over loopback with both
// protocols and checks that every hot-path instrument observed the traffic
// and that the registry exposes the paper's gauges with live values.
func TestServerTelemetry(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 600, 11)
	srv, tel := newInstrumentedServer(t, tr.NumProcs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// v2 traffic: batched events and queries.
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

	// v1 traffic: the text protocol goes through the same instruments.
	v1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events[cut:] {
		if err := v1.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v1.Precedes(tr.Events[cut].ID, tr.Events[cut+1].ID); err != nil {
		t.Fatal(err)
	}
	v1.Close()

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
		"poetd_cr_keyframes_total",
		"poetd_cr_delta_frames_total",
		"poetd_lane_queue_depth{lane=",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("registry exposition missing %q", series)
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
	// The physical side: every noted cluster receive is one frame, the store
	// has carved at least a projection element per event, and a second scrape
	// lists each lane once (the per-lane vectors reuse their buffers).
	if got := st.Store.Keyframes + st.Store.DeltaFrames; got != int64(st.Paper.ClusterReceives) {
		t.Errorf("Status store = %+v: keyframes + delta frames want the %d noted cluster receives", st.Store, st.Paper.ClusterReceives)
	}
	if st.Store.VectorBytes < 4*int64(len(tr.Events)) {
		t.Errorf("Status store vector_bytes = %d for %d events", st.Store.VectorBytes, len(tr.Events))
	}
	sb.Reset()
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lanes := srv.def.monitor.IngestShards()
	if len(st.Store.LaneQueueDepth) != lanes {
		t.Errorf("Status lane_queue_depth lists %d lanes, want %d", len(st.Store.LaneQueueDepth), lanes)
	}
	for _, series := range []string{"poetd_lane_queue_depth{", "poetd_ingest_shard_events_total{"} {
		if got := strings.Count(sb.String(), series); got != lanes {
			t.Errorf("second scrape renders %d %s samples, want one per lane (%d)", got, series, lanes)
		}
	}
	lat, present := st.Latency["ingest_batch"]
	if !present || lat.Count == 0 {
		t.Errorf("Status latency[ingest_batch] = %+v, want observations", lat)
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
	got := m.Accounting().TimestampSizeRatio(fixed)
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
