// Command poquery answers precedence queries over a trace, either locally —
// loading the trace into an in-process monitoring entity and cross-checking
// the cluster-timestamp answer against the Fidge/Mattern answer and
// ground-truth graph reachability — or remotely, against a running poetd
// daemon (protocol v2).
//
// Usage:
//
//	poquery -trace pvm/ring-64 -e 0:1 -f 1:5
//	poquery -in trace.hctr -e 3:10 -f 7:2 -maxcs 13 -strategy merge-nth
//	poquery -trace dce/rpc-36 -sample 50      # random sampled queries
//
// Against a daemon (start one with poetd -procs 300):
//
//	poquery -addr 127.0.0.1:7777 -trace pvm/ring-300 -load -sample 50
//	poquery -addr 127.0.0.1:7777 -e 0:1 -f 1:5
//	poquery -addr 127.0.0.1:7777 -watch 1s        # live throughput, per tenant
//
// With -load the trace is streamed to the daemon in event batches before
// querying; when a trace is available the remote answers are additionally
// cross-checked against a local Fidge/Mattern computation.
//
// Time travel: -at answers queries as of a point in recorded history — the
// first N delivered events — instead of the present. Against a WAL
// directory it needs no daemon at all: the replay plane opens the snapshot
// and sealed segments read-only, stamps the log forward into a store of its
// own and clamps it at the prefix, so a crashed (or live) daemon's history
// is queryable in place:
//
//	poquery -wal /var/lib/poetd/wal -at 50000 -e 0:1 -f 1:5
//	poquery -wal /var/lib/poetd/wal -at latest -e 0:1 -cut
//	poquery -wal /var/lib/poetd/wal -at 50000 -trace pvm/ring-300 -sample 50
//
// Against a running daemon, -at issues QUERY@ frames, answered from the
// daemon's replay plane (requires poetd -wal):
//
//	poquery -addr 127.0.0.1:7777 -at 50000 -e 0:1 -f 1:5
//
// Multi-tenant daemons: -tenant scopes every mode to one namespace. Against
// -addr the session is rescoped with a TENANT frame before any traffic;
// against -wal the tenant's subdirectory of the WAL root is opened
// (`<walroot>/<tenant>/`; a pre-tenant root keeps serving as "default"):
//
//	poquery -addr 127.0.0.1:7777 -tenant blue -trace pvm/ring-300 -load -sample 50
//	poquery -wal /var/lib/poetd/wal -tenant blue -at latest -e 0:1 -f 1:5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "poquery: %v\n", err)
		os.Exit(1)
	}
}

// mode is what one of the three answering modes — a local monitor, a WAL
// directory, a running daemon — contributes to the shared driver.
type mode struct {
	label    string                                   // names the mode, and its answer beside the references'
	precedes func(e, f model.EventID) (bool, error)   // the mode's query primitive
	draw     func(r *rand.Rand) (model.EventID, bool) // one event for -sample; nil: nothing to draw from
	cuts     *monitor.Queries                         // the store -cut reads; nil: the mode has none
	cutNote  string                                   // completes the -cut heading
	close    func()
}

// reference is an independent implementation the mode's answers are held to.
type reference struct {
	name     string
	precedes func(e, f model.EventID) bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poquery", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "binary trace file")
		traceName = fs.String("trace", "", "corpus computation to generate")
		addr      = fs.String("addr", "", "query a running poetd at this address instead of a local monitor; "+tcp.AddrRule)
		walDir    = fs.String("wal", "", "answer from this WAL directory's recorded history (replay plane, no daemon needed)")
		tenant    = fs.String("tenant", "", "tenant namespace: scopes -addr sessions and selects the WAL subdirectory under -wal (empty = default)")
		atArg     = fs.String("at", "", "time-travel cutoff: an event count, or 'latest' (with -wal or -addr)")
		load      = fs.Bool("load", false, "with -addr: stream the trace to the daemon before querying")
		maxCS     = fs.Int("maxcs", 13, "maximum cluster size")
		strat     = fs.String("strategy", "merge-1st", "merge-1st | merge-nth")
		threshold = fs.Float64("threshold", 10, "normalized CR threshold for merge-nth")
		watch     = fs.Duration("watch", 0, "with -addr: poll STATS at this interval and print throughput deltas (0 = off)")
		watchN    = fs.Int("watch-count", 0, "with -watch: stop after this many intervals (0 = until interrupted)")
		eArg      = fs.String("e", "", "first event as proc:index")
		fArg      = fs.String("f", "", "second event as proc:index")
		sample    = fs.Int("sample", 0, "answer this many random queries instead of -e/-f")
		seed      = fs.Int64("seed", 1, "seed for -sample")
		cut       = fs.Bool("cut", false, "with -e: print the greatest-predecessor and greatest-concurrent cuts of the event")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *model.Trace
	if *in != "" || *traceName != "" {
		var err error
		if tr, err = loadTrace(*in, *traceName); err != nil {
			return err
		}
	}
	newCfg, err := configFactory(*maxCS, *strat, *threshold)
	if err != nil {
		return err
	}
	cutoff, err := parseCutoff(*atArg)
	if err != nil {
		return err
	}

	var m mode
	switch {
	case *walDir != "":
		m, err = openReplay(out, resolveWALDir(*walDir, *tenant), newCfg, cutoff)
	case *addr != "":
		if *cut {
			return fmt.Errorf("-cut requires a local monitor or -wal (drop -addr)")
		}
		var sess *monitor.ClientV2
		if sess, err = dialRemote(out, *addr, *tenant, tr, *load); err != nil {
			return err
		}
		defer sess.Close()
		if *watch > 0 {
			return runWatch(out, sess.Stats, *watch, *watchN)
		}
		m = remoteMode(sess, tr, *atArg != "", cutoff)
	case *watch > 0:
		return fmt.Errorf("-watch requires -addr")
	case *atArg != "":
		return fmt.Errorf("-at requires -wal or -addr")
	case *tenant != "":
		return fmt.Errorf("-tenant requires -wal or -addr")
	case tr == nil:
		return fmt.Errorf("need -in or -trace")
	default:
		m, err = openLocal(tr, newCfg)
	}
	if err != nil {
		return err
	}
	if m.close != nil {
		defer m.close()
	}

	// Reference implementations for cross-checking, whenever a trace is at
	// hand. Valid in every mode and at any cutoff: an event's Fidge/Mattern
	// clock and its reachability depend only on its causal past, which a
	// replayed prefix holds in full.
	var refs []reference
	if tr != nil {
		fmClock, err := stampClocks(tr)
		if err != nil {
			return err
		}
		oracle, err := model.NewReachability(tr)
		if err != nil {
			return err
		}
		refs = []reference{
			{"fidge-mattern", func(e, f model.EventID) bool { return fm.Precedes(e, fmClock[e], f, fmClock[f]) }},
			{"reachability", oracle.HappenedBefore},
		}
	}
	return answer(out, m, refs, *eArg, *fArg, *sample, *seed, *cut)
}

// answer is the tail every mode shares: -sample or one -e/-f pair, each
// answer printed as a relation word beside the references' verdicts and
// refused on disagreement, or -cut's two frontiers around -e.
func answer(out io.Writer, m mode, refs []reference, eArg, fArg string, sample int, seed int64, cut bool) error {
	ask := func(e, f model.EventID) error {
		got, err := m.precedes(e, f)
		if err != nil {
			return err
		}
		rel := "concurrent with"
		if got {
			rel = "happened before"
		} else if back, _ := m.precedes(f, e); back {
			rel = "happened after"
		}
		verdicts, agree := "", true
		for _, ref := range refs {
			want := ref.precedes(e, f)
			verdicts += fmt.Sprintf(" %s=%v", ref.name, want)
			agree = agree && got == want
		}
		if verdicts != "" {
			verdicts = fmt.Sprintf("   [%s=%v%s]", m.label, got, verdicts)
		}
		fmt.Fprintf(out, "%v %s %v%s\n", e, rel, f, verdicts)
		if !agree {
			return fmt.Errorf("DISAGREEMENT on (%v,%v)", e, f)
		}
		return nil
	}

	if sample > 0 {
		if m.draw == nil {
			return fmt.Errorf("-sample needs -in or -trace to draw events from")
		}
		r := rand.New(rand.NewSource(seed))
		answered := 0
		for ; answered < sample; answered++ {
			e, ok1 := m.draw(r)
			f, ok2 := m.draw(r)
			if !ok1 || !ok2 {
				break
			}
			if err := ask(e, f); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%d sampled queries answered (%s), each in agreement with %d reference implementations\n", answered, m.label, len(refs))
		return nil
	}

	e, err := trace.ParseEventID(eArg)
	if err != nil {
		return fmt.Errorf("-e: %w (want proc:index)", err)
	}
	if cut {
		// The compound queries of Section 1.1: the event's causal-past
		// frontier and its greatest concurrent events.
		preds, err := m.cuts.GreatestPredecessors(e)
		if err != nil {
			return err
		}
		conc, err := m.cuts.GreatestConcurrent(e)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "causal cuts around %v%s:\n", e, m.cutNote)
		fmt.Fprintf(out, "%-8s %-22s %-22s\n", "process", "greatest predecessor", "greatest concurrent")
		for p := range preds {
			pr, co := "-", "-"
			if preds[p].Index > 0 {
				pr = fmt.Sprintf("p%d:%d", p, preds[p].Index)
			}
			if conc[p].Index > 0 {
				co = fmt.Sprintf("p%d:%d", p, conc[p].Index)
			}
			fmt.Fprintf(out, "%-8d %-22s %-22s\n", p, pr, co)
		}
		return nil
	}
	f, err := trace.ParseEventID(fArg)
	if err != nil {
		return fmt.Errorf("-f: %w (want proc:index)", err)
	}
	return ask(e, f)
}

// drawFromTrace draws -sample events uniformly from the events of a trace a
// daemon that recorded it in order holds at cutoff n: its first n events, less
// a synchronous half whose partner lies past the cutoff, which the view at the
// cutoff does not hold either. An n past the trace's end (CutoffLatest) draws
// from all of it.
func drawFromTrace(tr *model.Trace, n uint64) func(*rand.Rand) (model.EventID, bool) {
	if tr == nil {
		return nil
	}
	held := tr.Events
	if n < uint64(len(held)) {
		count := make([]model.EventIndex, tr.NumProcs) // per process, the events of the prefix
		for _, e := range held[:n] {
			count[e.ID.Process] = e.ID.Index
		}
		held = nil
		for _, e := range tr.Events[:n] {
			if e.Kind != model.Sync || count[e.Partner.Process] >= e.Partner.Index {
				held = append(held, e)
			}
		}
	}
	return func(r *rand.Rand) (model.EventID, bool) {
		if len(held) == 0 {
			return model.EventID{}, false
		}
		return held[r.Intn(len(held))].ID, true
	}
}

// openLocal serves the default mode: the trace is delivered to an
// in-process monitoring entity, which answers.
func openLocal(tr *model.Trace, newCfg func() hct.Config) (mode, error) {
	m, err := monitor.New(tr.NumProcs, newCfg())
	if err != nil {
		return mode{}, err
	}
	if err := m.DeliverAll(tr); err != nil {
		return mode{}, err
	}
	return mode{label: "cluster-ts", precedes: m.Precedes, draw: drawFromTrace(tr, replay.CutoffLatest), cuts: m.Queries}, nil
}

// configFactory builds the cluster-timestamp configuration factory for the
// strategy flags. A fresh Config (with a fresh, stateful decider) is handed
// out per call, so one factory can configure both a live monitor and the
// replay plane's engines.
func configFactory(maxCS int, strat string, threshold float64) (func() hct.Config, error) {
	switch strat {
	case "merge-1st":
		return func() hct.Config {
			return hct.Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnFirst()}
		}, nil
	case "merge-nth":
		return func() hct.Config {
			return hct.Config{MaxClusterSize: maxCS, Decider: strategy.NewMergeOnNth(threshold)}
		}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q", strat)
}

// resolveWALDir maps a WAL root plus a -tenant selection onto the directory
// the replay plane should open. Tenant-aware daemons lay namespaces out as
// <root>/<tenant>/; a pre-tenant root (or a path pointing straight at one
// tenant's directory) holds its segments directly and serves as "default".
func resolveWALDir(root, tenant string) string {
	if tenant == "" {
		tenant = monitor.DefaultTenant
	}
	sub := filepath.Join(root, tenant)
	if st, err := os.Stat(sub); err == nil && st.IsDir() {
		return sub
	}
	if tenant == monitor.DefaultTenant {
		return root // pre-tenant layout: segments live in the root itself
	}
	return sub // let replay.Open report the missing namespace
}

// parseCutoff maps the -at flag onto a replay cutoff; unset means latest.
func parseCutoff(s string) (uint64, error) {
	if s == "" || s == "latest" {
		return replay.CutoffLatest, nil
	}
	c, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -at %q: want an event count or 'latest'", s)
	}
	return c, nil
}

// openReplay serves the -wal mode: queries are answered from recorded history
// with no daemon involved — the replay plane opens the WAL chain read-only
// and materializes the store as of the cutoff.
func openReplay(out io.Writer, dir string, newCfg func() hct.Config, cutoff uint64) (mode, error) {
	st, err := replay.Open(dir, replay.Options{NewConfig: newCfg})
	if err != nil {
		return mode{}, err
	}
	v, err := st.ViewAt(cutoff)
	if err != nil {
		st.Close()
		return mode{}, err
	}
	stats := v.Stats(metrics.DefaultFixedVector)
	fmt.Fprintf(out, "replay view at cutoff %d of %d recorded events (procs=%d crs=%d clusters=%d storage=%d)\n",
		v.Cutoff(), st.Events(), v.NumProcs(), stats.ClusterReceives, stats.LiveClusters, stats.StorageInts)
	wm := v.Watermark()
	return mode{
		label:    "replay",
		precedes: v.Precedes,
		draw: func(r *rand.Rand) (model.EventID, bool) {
			// Draw uniformly from the events the view actually holds.
			for try := 0; try < 4*len(wm); try++ {
				if p := r.Intn(len(wm)); wm[p] > 0 {
					return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(1 + r.Int31n(wm[p]))}, true
				}
			}
			return model.EventID{}, false
		},
		cuts:    v.Queries,
		cutNote: fmt.Sprintf(" as of event %d", v.Cutoff()),
		close:   func() { st.Close() },
	}, nil
}

// dialRemote opens the -addr session: scoped to the tenant before any
// traffic, and with -load the trace streamed in (the client splits it into
// frames the server accepts) before anything is asked.
func dialRemote(out io.Writer, addr, tenant string, tr *model.Trace, load bool) (*monitor.ClientV2, error) {
	if load && tr == nil {
		return nil, fmt.Errorf("-load needs -in or -trace")
	}
	sess, err := monitor.DialV2(addr)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		err = sess.SelectTenant(tenant)
	}
	if err == nil && load {
		if err = sess.ReportBatch(tr.Events); err == nil {
			var stats string
			stats, err = sess.Stats()
			fmt.Fprintf(out, "loaded %d events; %s\n", len(tr.Events), stats)
		}
	}
	if err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}

// remoteMode serves the -addr mode: the daemon answers — from its live
// store, or with -at from its replay plane (QUERY@ frames) as of the cutoff,
// -sample then drawing from what the cutoff holds.
func remoteMode(sess *monitor.ClientV2, tr *model.Trace, at bool, cutoff uint64) mode {
	m := mode{label: "remote", precedes: sess.Precedes, draw: drawFromTrace(tr, cutoff)}
	if at {
		m.precedes = func(e, f model.EventID) (bool, error) {
			res, err := sess.QueryBatchAt(cutoff, []monitor.Query{{Op: monitor.OpPrecedes, A: e, B: f}})
			if err != nil {
				return false, err
			}
			return res[0].True, res[0].Err
		}
	}
	return m
}

// runWatch polls the daemon's STATS surface and prints interval throughput —
// a top(1)-style view of a running poetd, built entirely from the protocol
// the daemon already speaks. Each line is the delta over one interval; the
// trailing column breaks the event rate down by ingest shard (stamping
// lane), so an unbalanced shard map is visible at a glance, and under it one
// row per namespace when the daemon serves more than the default one.
func runWatch(out io.Writer, stats func() (string, error), interval time.Duration, count int) error {
	read := func() (map[string]int64, error) {
		body, err := stats()
		if err != nil {
			return nil, err
		}
		stats := parseStats(body)
		if _, ok := stats["ingested"]; !ok {
			return nil, fmt.Errorf("STATS %q carries no counters to watch", body)
		}
		return stats, nil
	}
	prev, err := read()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %12s %12s %12s %12s %10s  %s\n",
		"interval", "events/s", "batches/s", "queries/s", "ingested", "errors", "shard events/s")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; count == 0 || i < count; i++ {
		<-ticker.C
		cur, err := read()
		if err != nil {
			return err
		}
		rate := func(key string) float64 { return float64(cur[key]-prev[key]) / interval.Seconds() }

		// shard0, shard1, ... as "[31250 30890]"; empty without sharded ingest.
		var shards []string
		for {
			key := "shard" + strconv.Itoa(len(shards))
			if _, ok := cur[key]; !ok {
				break
			}
			shards = append(shards, fmt.Sprintf("%.0f", rate(key)))
		}
		shardCol := ""
		if len(shards) > 0 {
			shardCol = "[" + strings.Join(shards, " ") + "]"
		}
		fmt.Fprintf(out, "%-10s %12.0f %12.0f %12.0f %12d %10d  %s\n",
			interval, rate("ingested"), rate("batches"), rate("queries"),
			cur["ingested"], cur["proto_errors"], shardCol)

		// tenant_events{tenant="name"}: a daemon reporting only the default
		// namespace adds no rows — the global row already tells the whole story.
		var tenants []string
		for key := range cur {
			if name, ok := strings.CutPrefix(key, `tenant_events{tenant="`); ok {
				tenants = append(tenants, strings.TrimSuffix(name, `"}`))
			}
		}
		sort.Strings(tenants)
		if len(tenants) > 1 || (len(tenants) == 1 && tenants[0] != monitor.DefaultTenant) {
			for _, name := range tenants {
				events := fmt.Sprintf("tenant_events{tenant=%q}", name)
				fmt.Fprintf(out, "  %-24s %12.0f %12s %12.0f %12d\n", "tenant "+name,
					rate(events), "", rate(fmt.Sprintf("tenant_queries{tenant=%q}", name)), cur[events])
			}
		}
		prev = cur
	}
	return nil
}

// parseStats reads a STATS body into its integer fields, keyed by the field
// names as sent: ingested, shard0, tenant_events{tenant="blue"}. Tenant names
// are [a-zA-Z0-9_-], so a labelled field holds no space and splits like any
// other; fields whose value is not an integer (tenant=blue) are skipped.
func parseStats(body string) map[string]int64 {
	stats := make(map[string]int64)
	for _, field := range strings.Fields(body) {
		eq := strings.LastIndexByte(field, '=')
		if eq <= 0 {
			continue
		}
		if v, err := strconv.ParseInt(field[eq+1:], 10, 64); err == nil {
			stats[field[:eq]] = v
		}
	}
	return stats
}

// stampClocks computes the trace's Fidge/Mattern clocks keyed by event.
func stampClocks(tr *model.Trace) (map[model.EventID]vclock.Clock, error) {
	stamped, err := fm.StampAll(tr)
	if err != nil {
		return nil, err
	}
	clocks := make(map[model.EventID]vclock.Clock, len(stamped))
	for _, st := range stamped {
		clocks[st.Event.ID] = st.Clock
	}
	return clocks, nil
}

func loadTrace(in, traceName string) (*model.Trace, error) {
	if traceName != "" {
		spec, ok := workload.Find(traceName)
		if !ok {
			return nil, fmt.Errorf("unknown computation %q", traceName)
		}
		return spec.Generate(), nil
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadBinary(f)
}
