package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// surfaceNumbers are the sixteen numbers the daemon reports on more than
// one surface: the STATS key, the /metrics family and — where /statusz
// carries it — the key under "counters".
var surfaceNumbers = []struct{ stats, family, status string }{
	{"ingested", "poetd_events_ingested_total", "EventsIngested"},
	{"batches", "poetd_batches_ingested_total", "BatchesIngested"},
	{"queries", "poetd_queries_answered_total", "QueriesAnswered"},
	{"qframes", "poetd_query_frames_total", "QueryFrames"},
	{"frames", "poetd_frames_read_total", "FramesRead"},
	{"proto_errors", "poetd_protocol_errors_total", "ProtocolErrors"},
	{"conns", "poetd_conns_accepted_total", "ConnsAccepted"},
	{"rejected", "poetd_conns_rejected_total", "ConnsRejected"},
	{"wal_records", "poetd_wal_records_total", ""},
	{"wal_events", "poetd_wal_events_total", ""},
	{"wal_bytes", "poetd_wal_bytes_total", ""},
	{"wal_fsyncs", "poetd_wal_fsyncs_total", ""},
	{"wal_snapshots", "poetd_wal_snapshots_total", ""},
	{"wal_recovered", "poetd_wal_recovered_events", ""},
	{"wal_recovered_records", "poetd_wal_recovered_records", ""},
	{"wal_torn", "poetd_wal_torn_records_total", ""},
}

// TestSurfacesAgree pins the three wire surfaces to one another and to their
// shape. A WAL-backed two-tenant, two-lane server with telemetry — its default
// tenant recovered from a log with a torn tail — takes a v2 batch stream, a
// query batch, a refused connection, a malformed frame, a one-event frame, a
// malformed EVENTS frame and a one-query frame; then the STATS body, a
// classic /metrics scrape and the /statusz document must report the same
// value for each of the sixteen numbers, the STATS body must be the known
// key sequence with integers as %d and the two rates as %.0f, and /statusz
// must carry its counter and rate keys in their order.
func TestSurfacesAgree(t *testing.T) {
	tr := workload.RandomSparse(12, 3, 600, 11)
	const recovered = 100
	root := t.TempDir()

	// The default tenant's previous life: one record, then a crash mid-write.
	pre, err := wal.Open(filepath.Join(root, DefaultTenant), wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.AppendRun(tr.Events[:recovered]); err != nil {
		t.Fatal(err)
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(root, DefaultTenant, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments before the crash: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 1, 2, 3})
	f.Close()

	tel := obs.NewTelemetry(obs.NewRegistry())
	var defLog *wal.Log
	srv, err := NewTenantServer(ServerConfig{FixedVector: tr.NumProcs, MaxConns: 1, Obs: tel, Tenants: &TenantsConfig{
		New: func(name string) (TenantResources, error) {
			m, err := NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 13}, hct.PipelineOptions{Shards: 2})
			if err != nil {
				return TenantResources{}, err
			}
			wlog, err := wal.Open(filepath.Join(root, name), wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncAlways})
			if err != nil {
				return TenantResources{}, err
			}
			if name == DefaultTenant {
				defLog = wlog
				wlog.RegisterMetrics(tel.Registry)
				err := wlog.Replay(m.DeliverBatchAsync)
				m.IngestBarrier()
				if err != nil {
					return TenantResources{}, err
				}
			}
			return TenantResources{Monitor: m, Journal: wlog, WALEvents: wlog.Appended,
				Close: func() error { m.Close(); return wlog.Close() }}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle := func() {
		t.Helper()
		waitFor(t, func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.conns) == 0
		})
	}

	// v2: the rest of the default tenant's stream, all of blue's, a query
	// batch — and, while this connection holds the one slot, a refused dial.
	sess, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{DefaultTenant, "blue"} {
		if err := sess.SelectTenant(tenant); err != nil {
			t.Fatal(err)
		}
		lo := 0
		if tenant == DefaultTenant {
			lo = recovered
		}
		for ; lo < len(tr.Events)-1; lo += 64 {
			if err := sess.ReportBatch(tr.Events[lo:min(lo+64, len(tr.Events)-1)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	qs := make([]Query, 10)
	for k := range qs {
		qs[k] = Query{Op: OpPrecedes, A: tr.Events[k*13].ID, B: tr.Events[k*37].ID}
	}
	if _, err := sess.QueryBatch(qs); err != nil {
		t.Fatal(err)
	}
	if full, err := DialV2(addr.String()); err == nil {
		full.Close()
		t.Fatal("second connection at MaxConns 1 was served")
	}
	sess.Close()
	idle()
	if err := defLog.Compact(); err != nil {
		t.Fatal(err)
	}

	// v2 by hand: one frame of an unknown type.
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	rr := bufio.NewReader(raw)
	if _, err := raw.Write(protocolMagic[:]); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(rr); err != nil || typ != frameHello {
		t.Fatalf("hello: frame 0x%02x, %v", typ, err)
	}
	if err := writeFrame(raw, 0x7f, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(rr); err != nil || typ != frameErr {
		t.Fatalf("malformed frame answered with 0x%02x, %v", typ, err)
	}
	raw.Close()
	idle()

	// Frames again: the stream's last event, a malformed EVENTS frame, a
	// query, then STATS. The connection stays open while the other two
	// surfaces are read, so nothing moves between the three readings.
	last, err := DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if err := last.Report(tr.Events[len(tr.Events)-1]); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := last.exchange(frameEvents, []byte{0, 0}); err != nil || typ != frameErr {
		t.Fatalf("malformed EVENTS frame answered with 0x%02x, %v", typ, err)
	}
	// STATS is not barriered, a query is: events= must not trail ingested=.
	if _, err := last.Precedes(tr.Events[0].ID, tr.Events[1].ID); err != nil {
		t.Fatal(err)
	}
	body, err := last.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// The golden shape.
	wantKeys := strings.Fields("events crs clusters held storage ingested batches queries qframes frames proto_errors conns rejected events_per_sec queries_per_sec tenant tenants shards xwaits shard0 shard1")
	for _, tenant := range []string{"blue", DefaultTenant} {
		wantKeys = append(wantKeys, fmt.Sprintf("tenant_events{tenant=%q}", tenant), fmt.Sprintf("tenant_queries{tenant=%q}", tenant))
	}
	wantKeys = append(wantKeys, strings.Fields("wal_records wal_events wal_bytes wal_fsyncs wal_snapshots wal_recovered wal_recovered_records wal_torn")...)
	stats := make(map[string]string)
	var gotKeys []string
	digits := regexp.MustCompile(`^[0-9]+$`)
	for _, field := range strings.Fields(body) {
		i := strings.LastIndexByte(field, '=')
		if i <= 0 {
			t.Fatalf("STATS field %q is not key=value", field)
		}
		k, v := field[:i], field[i+1:]
		gotKeys = append(gotKeys, k)
		stats[k] = v
		if k == "tenant" {
			if v != DefaultTenant {
				t.Errorf("STATS tenant=%s on an unscoped connection", v)
			}
		} else if !digits.MatchString(v) {
			t.Errorf("STATS %s=%q is not a plain integer (%%d, or %%.0f for the rates)", k, v)
		}
	}
	if got, want := strings.Join(gotKeys, " "), strings.Join(wantKeys, " "); got != want {
		t.Errorf("STATS keys:\n got %s\nwant %s", got, want)
	}

	// /metrics, classic dialect: unlabelled samples by family name.
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scraped := make(map[string]string)
	for _, line := range strings.Split(sb.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && line[0] != '#' {
			scraped[name] = v
		}
	}

	// /statusz as served: the JSON document.
	doc, err := json.Marshal(srv.Status())
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Counters json.RawMessage            `json:"counters"`
		Rates    json.RawMessage            `json:"rates_since_start"`
		Store    map[string]json.RawMessage `json:"store"`
		Memory   struct {
			Runtime map[string]float64 `json:"runtime"`
		} `json:"memory"`
	}
	if err := json.Unmarshal(doc, &status); err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64)
	if err := json.Unmarshal(status.Counters, &counters); err != nil {
		t.Fatalf("counters %s: %v", status.Counters, err)
	}
	inOrder := func(what string, raw json.RawMessage, keys ...string) {
		t.Helper()
		var any map[string]json.Number
		if err := json.Unmarshal(raw, &any); err != nil || len(any) != len(keys) {
			t.Errorf("/statusz %s = %s (%v), want exactly the keys %v", what, raw, err, keys)
			return
		}
		at := -1
		for _, k := range keys {
			i := strings.Index(string(raw), strconv.Quote(k)+":")
			if i <= at {
				t.Errorf("/statusz %s = %s: key %s missing or out of order (want %v)", what, raw, k, keys)
			}
			at = i
		}
	}
	inOrder("counters", status.Counters, "EventsIngested", "BatchesIngested", "QueriesAnswered", "QueryFrames",
		"FramesRead", "ProtocolErrors", "ConnsAccepted", "ConnsRejected")
	inOrder("rates_since_start", status.Rates, "EventsPerSec", "BatchesPerSec", "QueriesPerSec")

	for _, n := range surfaceNumbers {
		want, ok := stats[n.stats]
		if !ok {
			continue // already reported by the key sequence
		}
		if got, ok := scraped[n.family]; !ok || got != want {
			t.Errorf("STATS %s=%s, /metrics %s %s (present %v)", n.stats, want, n.family, got, ok)
		}
		if n.status == "" {
			continue
		}
		if got, ok := counters[n.status]; !ok || strconv.FormatInt(got, 10) != want {
			t.Errorf("STATS %s=%s, /statusz counters.%s = %d (present %v)", n.stats, want, n.status, got, ok)
		}
	}

	// The store block is /statusz's and /metrics' alone (STATS carries the
	// paper's accounting, not the physical one): key by key the same number,
	// and the seven ways an event's vector is stored — a projection keyframe,
	// a byte frame, a nibble frame, a cell that shares its predecessor's, a
	// cluster-receive keyframe, a delta frame, a nibble frame — add up to the
	// default tenant's events. The sparse frames are some of the delta and
	// nibble frames, and the 16-bit keys some of the keyframes, not an eighth
	// way.
	stored := 0
	for key, family := range map[string]string{
		"vector_bytes": "poetd_store_vector_bytes", "cell_bytes": "poetd_store_cell_bytes",
		"note_bytes": "poetd_store_note_bytes", "epochs": "poetd_store_epochs",
		"proj_keyframes": "poetd_store_proj_keyframes", "proj_frames": "poetd_store_proj_frames",
		"proj_nibble_frames": "poetd_store_proj_nibble_frames", "proj_shared": "poetd_store_proj_shared",
		"cr_keyframes": "poetd_cr_keyframes_total", "cr_delta_frames": "poetd_cr_delta_frames_total",
		"cr_nibble_frames": "poetd_cr_nibble_frames_total", "cr_sparse_frames": "poetd_cr_sparse_frames_total",
		"cr_wide_keys": "poetd_cr_wide_keys_total",
	} {
		if got, want := scraped[family], string(status.Store[key]); got != want || want == "" {
			t.Errorf("/statusz store.%s = %q, /metrics %s %q", key, want, family, got)
		}
		if key != "cr_sparse_frames" && key != "cr_wide_keys" && (strings.HasPrefix(key, "proj_") || strings.HasPrefix(key, "cr_")) {
			n, _ := strconv.Atoi(scraped[family])
			stored += n
		}
	}
	if stored != len(tr.Events) {
		t.Errorf("proj_keyframes + proj_frames + proj_nibble_frames + proj_shared + cr_keyframes + cr_delta_frames + cr_nibble_frames = %d, want the %d events", stored, len(tr.Events))
	}
	sparse, _ := strconv.Atoi(string(status.Store["cr_sparse_frames"]))
	deltas, _ := strconv.Atoi(string(status.Store["cr_delta_frames"]))
	if nibbles, _ := strconv.Atoi(string(status.Store["cr_nibble_frames"])); sparse > deltas+nibbles {
		t.Errorf("/statusz store: %d sparse frames of %d delta and %d nibble frames", sparse, deltas, nibbles)
	}
	if len(status.Store) != 14 { // the thirteen above and lane_queue_depth
		t.Errorf("/statusz store = %v: want the thirteen tallies and lane_queue_depth", status.Store)
	}

	// The runtime's samples are /statusz's memory block and /metrics'
	// poetd_runtime_* gauges, key by key. Each surface samples when asked, so
	// most values may move between the two readings; the two counts only grow,
	// and /metrics was read first.
	runtimeKeys := 0
	for name, v := range scraped {
		key, ok := strings.CutPrefix(name, "poetd_runtime_")
		if !ok {
			continue
		}
		runtimeKeys++
		got, _ := strconv.ParseFloat(v, 64)
		want, ok := status.Memory.Runtime[key]
		switch {
		case !ok:
			t.Errorf("/metrics %s has no memory.runtime.%s on /statusz", name, key)
		case key == "heap_allocs_bytes" && got <= 0, (key == "heap_allocs_bytes" || key == "gc_cycles") && got > want:
			t.Errorf("/metrics %s %v, then /statusz memory.runtime.%s %v: want a count that only grows", name, got, key, want)
		}
	}
	if runtimeKeys != len(status.Memory.Runtime) || runtimeKeys != 9 {
		t.Errorf("%d poetd_runtime_* families on /metrics, /statusz memory.runtime = %v: want the same nine", runtimeKeys, status.Memory.Runtime)
	}

	// And the numbers are the traffic's, not sixteen agreeing zeros.
	events := len(tr.Events)
	for key, want := range map[string]int{
		"ingested": 2*events - 1 - recovered, "events": events, "queries": len(qs) + 1, "qframes": 2,
		"proto_errors": 2, "conns": 3, "rejected": 1,
		"wal_events": events - recovered, "wal_snapshots": 1,
		"wal_recovered": recovered, "wal_recovered_records": 1, "wal_torn": 1,
		`tenant_events{tenant="blue"}`: events - 1, `tenant_events{tenant="default"}`: events,
	} {
		if got := stats[key]; got != strconv.Itoa(want) {
			t.Errorf("STATS %s=%s, want %d", key, got, want)
		}
	}
	for _, key := range []string{"batches", "frames", "wal_records", "wal_bytes", "wal_fsyncs"} {
		if n, _ := strconv.Atoi(stats[key]); n <= 0 {
			t.Errorf("STATS %s=%s after the load", key, stats[key])
		}
	}
}
