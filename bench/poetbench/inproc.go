package main

import (
	"fmt"
	"time"

	"repro/internal/hct"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/wal"
)

// inprocTarget is poetd's default-tenant serving stack — sharded monitor, WAL
// at -fsync batch without snapshots, replay plane, tenant server on loopback
// — built inside the bench process the way cmd/poetd builds it. An in-process
// stack cannot be SIGKILLed, so crash is a clean Close: recovery still replays
// the whole WAL, but only procTarget tests that acknowledged means durable.
type inprocTarget struct {
	procs             int
	shards, planQueue int
	telemetry         bool // attach a default obs.Telemetry, as poetd does
	// wrapJournal and wrapHistory, when set, interpose on the tenant's WAL
	// and replay plane; the per-layer server rung uses them to record spans.
	wrapJournal func(monitor.RunJournal) monitor.RunJournal
	wrapHistory func(monitor.HistoryProvider) monitor.HistoryProvider

	srv *monitor.Server
	mon *monitor.Monitor
	log *wal.Log
}

func (t *inprocTarget) start(walDir string) (string, error) {
	var tel *obs.Telemetry
	if t.telemetry {
		tel = obs.NewTelemetry(obs.NewRegistry())
	}
	newTenant := func(name string) (monitor.TenantResources, error) {
		m, err := monitor.NewWithOptions(t.procs, newConfig(), hct.PipelineOptions{Shards: t.shards, PlanQueue: t.planQueue})
		if err != nil {
			return monitor.TenantResources{}, err
		}
		scope := obs.NewSpanScope()
		opts := wal.Options{NumProcs: t.procs, Sync: wal.SyncBatch, Spans: scope}
		if tel != nil {
			opts.AppendTimer, opts.FsyncTimer, opts.SnapshotTimer = tel.WALAppend, tel.WALFsync, tel.WALSnapshot
		}
		wlog, err := wal.Open(walDir+"/"+name, opts)
		if err != nil {
			m.Close()
			return monitor.TenantResources{}, fmt.Errorf("wal open: %w", err)
		}
		if wlog.RecoveredEvents() > 0 {
			if err := wlog.Replay(m.DeliverBatch); err != nil {
				wlog.Close()
				m.Close()
				return monitor.TenantResources{}, fmt.Errorf("wal replay: %w", err)
			}
		}
		history, err := replay.Open(walDir+"/"+name, replay.Options{NumProcs: t.procs, NewConfig: newConfig, Obs: tel})
		if err != nil {
			wlog.Close()
			m.Close()
			return monitor.TenantResources{}, fmt.Errorf("replay plane: %w", err)
		}
		t.mon, t.log = m, wlog
		res := monitor.TenantResources{Monitor: m, Journal: wlog, History: history, WALEvents: wlog.Appended, Spans: scope}
		if t.wrapJournal != nil {
			res.Journal = t.wrapJournal(wlog)
		}
		if t.wrapHistory != nil {
			res.History = t.wrapHistory(history)
		}
		res.Close = func() error {
			history.Close()
			m.Close()
			return wlog.Close()
		}
		return res, nil
	}
	srv, err := monitor.NewTenantServer(monitor.ServerConfig{
		FixedVector: fixedVector,
		Obs:         tel,
		Tenants:     &monitor.TenantsConfig{New: newTenant},
	})
	if err != nil {
		return "", err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", err
	}
	t.srv = srv
	return addr.String(), nil
}

func (t *inprocTarget) crash() error {
	if t.srv == nil {
		return nil
	}
	// Close reports events still held in the collector; a crash abandons
	// them by definition (the rate ladder stops mid-stream).
	_ = t.srv.Close()
	t.srv = nil
	return nil
}

// usage reports the whole bench process: the in-process daemon shares it
// with the load generator, which is why only procTarget feeds the
// end-to-end CPU and RSS metrics.
func (t *inprocTarget) usage() (time.Duration, int64, error) { return selfCPU(), 0, nil }

func (t *inprocTarget) exited() bool { return t.srv == nil }
