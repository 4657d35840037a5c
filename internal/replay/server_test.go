package replay_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/wal"
	"repro/internal/workload"
)

// serveDefault builds a server whose default tenant is res. Its factory hands
// res out with Close nil, so the caller keeps owning it, and refuses every
// other name.
func serveDefault(t *testing.T, res monitor.TenantResources) *monitor.Server {
	t.Helper()
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{Tenants: &monitor.TenantsConfig{
		New: func(name string) (monitor.TenantResources, error) {
			if name != monitor.DefaultTenant {
				return monitor.TenantResources{}, fmt.Errorf("this server serves only %q", monitor.DefaultTenant)
			}
			return res, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerQueryAt wires the replay plane into a live server the way poetd
// does and exercises the QUERY@ frame end to end: answers at a historical
// cutoff must match a local view at that cutoff, CutoffLatest must answer
// over sealed history, and queries beyond the cutoff must come back as
// per-query rejections, all while the server keeps ingesting. It runs once
// with the restamping store as the server's history provider and once the
// way poetd wires it: the counting engine over a 4-lane monitor's own store.
func TestServerQueryAt(t *testing.T) {
	t.Run("restamp", func(t *testing.T) { testServerQueryAt(t, false) })
	t.Run("live", func(t *testing.T) { testServerQueryAt(t, true) })
}

func testServerQueryAt(t *testing.T, live bool) {
	tr := workload.RandomSparse(6, 3, 600, 9)
	factory := func() hct.Config {
		return hct.Config{MaxClusterSize: 4, Decider: strategy.NewMergeOnFirst()}
	}

	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// hist restamps: it is the reference, and in the first cell also the
	// server's provider.
	hist, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	shards := 1
	if live {
		shards = 4
	}
	m, err := monitor.NewWithOptions(tr.NumProcs, factory(), hct.PipelineOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var provider monitor.HistoryProvider = hist
	if live {
		counting, err := replay.OpenLive(dir, m.Pipeline(), replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer counting.Close()
		provider = counting
	}

	srv := serveDefault(t, monitor.TenantResources{Monitor: m, Journal: wlog, History: provider})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := monitor.DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stream two thirds of the trace through the server (journaled to the
	// WAL), keeping the rest undelivered.
	cut := 2 * len(tr.Events) / 3
	if err := c.ReportBatch(tr.Events[:cut]); err != nil {
		t.Fatal(err)
	}
	// Everything acked is journaled, but SyncNever buffers in process:
	// flush so the chain reader sees the records on disk.
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	// Pick a historical cutoff at half of what was delivered and build the
	// reference answers from a local replay view of the same WAL.
	cutoff := uint64(cut / 2)
	local, err := hist.ViewAt(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	var qs []monitor.Query
	wm := local.Watermark()
	for p1 := range wm {
		for p2 := range wm {
			if wm[p1] == 0 || wm[p2] == 0 {
				continue
			}
			qs = append(qs, monitor.Query{
				Op: monitor.OpPrecedes,
				A:  model.EventID{Process: model.ProcessID(p1), Index: 1},
				B:  model.EventID{Process: model.ProcessID(p2), Index: model.EventIndex(wm[p2])},
			})
		}
	}
	res, err := c.QueryBatchAt(cutoff, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, wantErr := local.Precedes(q.A, q.B)
		if (res[i].Err != nil) != (wantErr != nil) || res[i].True != want {
			t.Fatalf("QUERY@%d %v->%v = (%v,%v), local view (%v,%v)",
				cutoff, q.A, q.B, res[i].True, res[i].Err, want, wantErr)
		}
	}

	// /statusz shows where the tenant's history plane stands.
	if hs := srv.Status().Tenants[monitor.DefaultTenant].History; hs == nil || hs.LastCutoff != cutoff || hs.EnginePosition != cutoff || hs.CachedViews != 1 {
		t.Fatalf("status history block = %+v after one view at %d", hs, cutoff)
	}

	// An event past the cutoff is unknown to the view even though the live
	// store has it: the server must reject that query (per-query), while
	// the live QUERY path answers it. Pair it with a known in-view event —
	// Precedes(e, e) is false by definition and skips the existence check.
	beyond := tr.Events[cutoff].ID
	var known model.EventID
	for p := range wm {
		if wm[p] > 0 {
			known = model.EventID{Process: model.ProcessID(p), Index: 1}
			break
		}
	}
	resAt, err := c.QueryBatchAt(cutoff, []monitor.Query{{Op: monitor.OpPrecedes, A: beyond, B: known}})
	if err != nil {
		t.Fatal(err)
	}
	if resAt[0].Err == nil {
		t.Fatalf("QUERY@%d on event %v beyond the cutoff was answered", cutoff, beyond)
	}
	resLive, err := c.QueryBatch([]monitor.Query{{Op: monitor.OpPrecedes, A: beyond, B: known}})
	if err != nil {
		t.Fatal(err)
	}
	if resLive[0].Err != nil {
		t.Fatalf("live QUERY on delivered event %v rejected: %v", beyond, resLive[0].Err)
	}

	// CutoffLatest follows the journal: the latest view answers over
	// everything flushed to the WAL so far.
	resLatest, err := c.QueryBatchAt(monitor.CutoffLatest, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resLatest) != len(qs) {
		t.Fatalf("QUERY@latest answered %d of %d", len(resLatest), len(qs))
	}

	// A cutoff beyond all recorded history is a frame-level error.
	if _, err := c.QueryBatchAt(uint64(len(tr.Events))+100, qs[:1]); err == nil {
		t.Fatal("QUERY@ beyond history succeeded")
	} else if !strings.Contains(err.Error(), "beyond recorded history") {
		t.Fatalf("QUERY@ beyond history: unexpected error %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerQueryAtWithoutHistory pins the rejection path: a server without
// a replay plane answers QUERY@ with an ERR frame and keeps the connection.
func TestServerQueryAtWithoutHistory(t *testing.T) {
	m, err := monitor.New(2, hct.Config{MaxClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveDefault(t, monitor.TenantResources{Monitor: m})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := monitor.DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := []monitor.Query{{Op: monitor.OpPrecedes, A: model.EventID{Process: 0, Index: 1}, B: model.EventID{Process: 1, Index: 1}}}
	if _, err := c.QueryBatchAt(0, q); err == nil {
		t.Fatal("QUERY@ without a replay plane succeeded")
	} else if !strings.Contains(err.Error(), "no replay plane") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The connection survives the rejection.
	if err := c.ReportBatch([]model.Event{{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}}); err != nil {
		t.Fatalf("connection dead after QUERY@ rejection: %v", err)
	}
}

// TestServerQueryAtFailedRead breaks the log under an open chain: the
// segment shrinks to its header after a QUERY@ has counted a third of it, so
// the next walk's reads come back short. That QUERY@ gets an ERR frame, the
// live QUERY keeps answering on the same connection, and once the bytes are
// back the first QUERY@ is exact [reads-below-valid]. A mapped log would
// have raised SIGBUS here.
func TestServerQueryAtFailedRead(t *testing.T) {
	tr := workload.RandomSparse(6, 3, 600, 9)
	factory := mergeOnFirst(4)
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{NumProcs: tr.NumProcs, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	m, err := monitor.NewWithOptions(tr.NumProcs, factory(), hct.PipelineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hist, err := replay.OpenLive(dir, m.Pipeline(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	srv := serveDefault(t, monitor.TenantResources{Monitor: m, Journal: wlog, History: hist})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := monitor.DialV2(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReportBatch(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	// The reference answers come from a restamping store's views, built
	// before anything breaks.
	ref, err := replay.Open(dir, replay.Options{NumProcs: tr.NumProcs, NewConfig: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	n := uint64(len(tr.Events))
	early, late := n/3, 2*n/3
	queries := func(v *replay.View) (qs []monitor.Query, want []bool) {
		wm := v.Watermark()
		for p1 := range wm {
			for p2 := range wm {
				if wm[p1] > 0 && wm[p2] > 0 {
					q := monitor.Query{Op: monitor.OpPrecedes,
						A: model.EventID{Process: model.ProcessID(p1), Index: 1},
						B: model.EventID{Process: model.ProcessID(p2), Index: model.EventIndex(wm[p2])}}
					ok, err := v.Precedes(q.A, q.B)
					if err != nil {
						t.Fatal(err)
					}
					qs, want = append(qs, q), append(want, ok)
				}
			}
		}
		return qs, want
	}
	exact := func(what string, res []monitor.QueryResult, want []bool) {
		t.Helper()
		for i := range want {
			if res[i].Err != nil || res[i].True != want[i] {
				t.Fatalf("%s: answer %d = (%v, %v), want %v", what, i, res[i].True, res[i].Err, want[i])
			}
		}
	}
	views := map[uint64]*replay.View{}
	for _, cut := range []uint64{early, late, n} {
		if views[cut], err = ref.ViewAt(cut); err != nil {
			t.Fatal(err)
		}
	}
	lateQs, lateWant := queries(views[late])
	liveQs, liveWant := queries(views[n])

	earlyQs, earlyWant := queries(views[early])
	res, err := c.QueryBatchAt(early, earlyQs)
	if err != nil {
		t.Fatal(err)
	}
	exact(fmt.Sprintf("QUERY@%d", early), res, earlyWant)

	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one segment, found %q (%v)", paths, err)
	}
	seg := paths[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryBatchAt(late, lateQs); err == nil {
		t.Fatalf("QUERY@%d answered over a log whose reads fail", late)
	} else if !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("QUERY@%d over a log whose reads fail: %v, want the short read", late, err)
	}
	res, err = c.QueryBatch(liveQs)
	if err != nil {
		t.Fatalf("live QUERY after the failed QUERY@: %v", err)
	}
	exact("live QUERY while the log fails", res, liveWant)

	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = c.QueryBatchAt(late, lateQs)
	if err != nil {
		t.Fatalf("QUERY@%d once the log is back: %v", late, err)
	}
	exact(fmt.Sprintf("QUERY@%d once the log is back", late), res, lateWant)
}
