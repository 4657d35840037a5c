// Package wal gives the monitoring entity a durable, replayable record of
// its delivered-event sequence. The monitor's entire state — Fidge/Mattern
// frontier, self-organized HCT cluster structure, precedence index — is a
// deterministic function of the runs the collector delivers, so logging
// those runs write-ahead and replaying them through the ingest path
// reconstructs the monitor byte-identically after a crash (the replay-clock
// durability argument of Lagwankar & Kulkarni).
//
// The log is a directory of CRC-framed segment files plus periodic
// snapshots. A snapshot is a compaction: the durable prefix rewritten as
// one sealed file, after which the older segments and snapshot are deleted
// and recovery replays snapshot + WAL tail only. See format.go for the
// byte-level layout and chain.go — the one reader of those bytes — for the
// directory's rules: what is a crash leftover, what is a refusal.
//
// The collector appends each run here before dispatching it to the stamping
// lanes [admit-before-journal], in records that never split a synchronous
// pair [run-atomic], so the durable log is a run-atomic prefix of what the
// pipeline has accepted, at any lane count.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// SyncPolicy selects when appended records reach the disk.
type SyncPolicy int

const (
	// SyncBatch (the default) group-commits: an fsync is issued when
	// SyncBytes have accumulated or SyncInterval has elapsed, whichever
	// comes first. A crash loses at most that window of acknowledged
	// events; throughput stays within a few percent of no durability.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every appended run before it is delivered: no
	// acknowledged event is ever lost, at the price of one fsync per run.
	SyncAlways
	// SyncNever leaves persistence to the page cache: a machine crash can
	// lose everything since the OS last wrote back; a process crash loses
	// only what the bufio layer still buffered.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "batch"
	}
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or never)", s)
}

// Options configures a Log.
type Options struct {
	// NumProcs is the monitored process count; it is stamped into every
	// file header and must match at reopen.
	NumProcs int
	// Sync is the fsync policy. The zero value is SyncBatch.
	Sync SyncPolicy
	// SyncInterval bounds the group-commit delay under SyncBatch.
	// Default 50ms.
	SyncInterval time.Duration
	// SyncBytes triggers a group commit under SyncBatch once this many
	// bytes are unsynced. Default 1 MiB.
	SyncBytes int
	// SnapshotEvery cuts a snapshot (asynchronously) each time this many
	// events accumulate past the previous snapshot. Zero disables
	// automatic snapshots; Compact remains available.
	SnapshotEvery int64
	// AppendTimer, FsyncTimer and SnapshotTimer, when non-nil, observe the
	// latency of each append (to the configured durability), each fsync
	// syscall, and each snapshot compaction. obs.Telemetry supplies the
	// production set.
	AppendTimer   *obs.Histogram
	FsyncTimer    *obs.Histogram
	SnapshotTimer *obs.Histogram
	// Spans, when non-nil, is consulted by AppendRun for the current batch's
	// span trace (the collector installs it around each journaled run).
	// AppendRun and its inline group-commit fsync record wal_append/wal_fsync
	// spans there; background fsyncs (tick loop, compaction) never attach
	// to a trace. The append latency histogram also remembers the trace ID
	// as a bucket exemplar.
	Spans *obs.SpanScope
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 1 << 20
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// maxEventsPerRecord bounds one record; larger runs are split (never
// between the two halves of a sync pair, which must recover atomically).
const maxEventsPerRecord = 1 << 20

// segment describes one sealed, read-only log segment.
type segment struct {
	path   string
	base   uint64 // global offset of the segment's first event
	events uint64
}

// Log is an append-only write-ahead log of delivered runs. All methods are
// safe for concurrent use; AppendRun is designed to sit on the collector's
// flush path.
//
// A log fails stop: the first failed write, fsync, directory fsync, rotation
// or snapshot is latched and returned by every later AppendRun, Sync, Compact
// and Close [journal-fail-stop].
type Log struct {
	dir      string
	fsys     fileSystem
	opts     Options
	counters *Counters

	mu         sync.Mutex
	closed     bool
	err        error         // the latched failure; nil while healthy
	f          file          // active segment
	w          *bufio.Writer // buffers f
	base       uint64        // event offset at the active segment's start
	segEvents  uint64        // events appended to the active segment
	appended   uint64        // global event count (durable + buffered)
	snapCount  uint64        // events covered by the newest sealed snapshot
	snapPath   string        // "" when no snapshot exists
	frozen     []segment     // sealed segments awaiting compaction
	dirtyBytes int           // bytes written since the last fsync
	freshSeg   bool          // the active segment is not yet durable [segment-durable-at-commit]
	lastSync   time.Time
	curTrace   *obs.Trace // span trace of the AppendRun in progress (under mu)
	curSpan    int        // its wal_append span, parent for wal_fsync
	compacting bool
	encBuf     []byte

	// chain is the scan Open accepted, kept mapped for Replay; nil once
	// replayed, appended to or closed.
	chain *Chain

	stopTick  chan struct{}
	tickWG    sync.WaitGroup
	compactWG sync.WaitGroup
}

func segName(base uint64) string { return fmt.Sprintf("wal-%016x.log", base) }
func snapName(n uint64) string   { return fmt.Sprintf("snap-%016x.snap", n) }

// parseHexName extracts the 16-hex-digit counter from a WAL file name.
func parseHexName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	return v, err == nil
}

// Open opens (or creates) the write-ahead log in dir and performs recovery
// in two steps [classify-then-repair]. Classify: the chain scan (chain.go) reads the directory
// without writing to it, CRC-checks every record of every part it keeps, and
// either refuses — Open then returns the error with dir exactly as it was
// found — or accepts the whole chain and names the crash leftovers it
// skipped. Repair: only then are the leftovers removed, a torn tail
// truncated, and the log positioned for appending. Call Replay before the
// first AppendRun to stream the recovered sequence into a fresh monitor.
func Open(dir string, opts Options) (*Log, error) { return openLog(osFS{}, dir, opts) }

// openLog is Open over the file system fsys.
func openLog(fsys fileSystem, dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.NumProcs <= 0 {
		return nil, fmt.Errorf("wal: NumProcs must be positive, got %d", opts.NumProcs)
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	c, err := scanChain(fsys, dir, opts.NumProcs, false)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, fsys: fsys, opts: opts, counters: newCounters(), lastSync: time.Now(), chain: c}
	if err := l.repair(); err != nil {
		c.Close()
		return nil, err
	}

	if opts.Sync == SyncBatch {
		l.stopTick = make(chan struct{})
		l.tickWG.Add(1)
		go l.tickLoop()
	}
	return l, nil
}

// repair applies what the accepted scan called for — removing the leftovers,
// truncating the final segment's torn tail to its valid length — and
// positions the appender at the chain's end.
func (l *Log) repair() error {
	c := l.chain
	for _, path := range c.leftovers {
		if err := l.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: removing crash leftover: %w", err)
		}
	}
	var segs []segment
	recs := 0
	for _, p := range c.parts {
		if p.snapshot {
			l.snapPath, l.snapCount = p.path, p.events
			continue
		}
		if p.torn {
			if err := l.fsys.Truncate(p.path, p.validLen); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		segs = append(segs, segment{path: p.path, base: p.base, events: p.events})
		recs += len(p.recs)
	}
	if c.torn {
		l.counters.TornRecords.Inc()
	}
	l.appended = c.events
	l.counters.EventsRecovered.Set(float64(c.events))
	l.counters.RecordsRecovered.Set(float64(recs))
	if len(segs) == 0 {
		return l.newSegment(l.appended)
	}
	last := segs[len(segs)-1]
	f, err := l.fsys.Append(last.path)
	if err != nil {
		return err
	}
	l.f, l.w = f, bufio.NewWriterSize(f, 256*1024)
	l.base, l.segEvents = last.base, last.events
	l.frozen = segs[:len(segs)-1]
	// The scan read the segment through the page cache: a process that
	// died before its first commit may have left its directory entry, or a
	// truncated tail, unflushed, so it is fresh to this log too
	// [segment-durable-at-commit].
	l.freshSeg = true
	return nil
}

// newSegment creates and activates a fresh segment starting at base and
// writes its header; on failure the active segment is unchanged. It flushes
// nothing to the disk: the segment and its directory entry become durable at
// the log's next group commit [segment-durable-at-commit]. Callers hold mu
// (or have exclusive access during Open).
func (l *Log) newSegment(base uint64) error {
	f, err := l.fsys.Create(filepath.Join(l.dir, segName(base)))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 256*1024)
	err = writeFileHeader(w, segMagic, base, l.opts.NumProcs)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.base, l.segEvents = f, w, base, 0
	l.freshSeg = true
	return nil
}

// RecoveredEvents returns the number of durable events found at Open.
func (l *Log) RecoveredEvents() uint64 { return uint64(l.counters.EventsRecovered.Value()) }

// RecoveredRecords returns the number of log records (snapshot chunks
// excluded) found at Open.
func (l *Log) RecoveredRecords() uint64 { return uint64(l.counters.RecordsRecovered.Value()) }

// TornTail reports whether Open truncated a torn or corrupt final record —
// the signature of a crash mid-append.
func (l *Log) TornTail() bool { return l.counters.TornRecords.Value() > 0 }

// Appended returns the global count of events appended (durable or
// buffered, per the sync policy).
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Counters is the log's durability accounting — how much it appended, how
// often it reached the disk, how many snapshots it cut, what recovery found
// at open — held in obs instruments. The instrument is the only storage:
// the append path bumps it, and Stats, a /metrics scrape and Snapshot read
// it.
type Counters struct {
	RecordsAppended, EventsAppended, BytesAppended, Fsyncs, Snapshots, TornRecords *obs.Counter
	EventsRecovered, RecordsRecovered                                              *obs.Gauge
}

// newCounters makes a log's instruments. Every log counts, so they come
// from the nil registry; RegisterMetrics exposes one log's set.
func newCounters() *Counters {
	var none *obs.Registry
	return &Counters{
		RecordsAppended:  none.NewCounter("poetd_wal_records_total", "CRC-framed run records appended."),
		EventsAppended:   none.NewCounter("poetd_wal_events_total", "Events inside appended records."),
		BytesAppended:    none.NewCounter("poetd_wal_bytes_total", "Bytes appended (framing plus payload)."),
		Fsyncs:           none.NewCounter("poetd_wal_fsyncs_total", "Explicit fsync calls issued."),
		Snapshots:        none.NewCounter("poetd_wal_snapshots_total", "Snapshot compactions sealed."),
		TornRecords:      none.NewCounter("poetd_wal_torn_records_total", "Torn or corrupt tail records truncated at open."),
		EventsRecovered:  none.NewGauge("poetd_wal_recovered_events", "Events replayed at the last open."),
		RecordsRecovered: none.NewGauge("poetd_wal_recovered_records", "Records replayed at the last open."),
	}
}

// Counts is a plain-integer reading of Counters (each instrument read
// atomically; the set is not one atomic snapshot, which is fine for monotone
// accounting).
type Counts struct {
	RecordsAppended, EventsAppended, BytesAppended, Fsyncs, Snapshots int64
	EventsRecovered, RecordsRecovered, TornRecords                    int64
}

// Snapshot reads the instruments.
func (c *Counters) Snapshot() Counts {
	return Counts{
		RecordsAppended:  c.RecordsAppended.Value(),
		EventsAppended:   c.EventsAppended.Value(),
		BytesAppended:    c.BytesAppended.Value(),
		Fsyncs:           c.Fsyncs.Value(),
		Snapshots:        c.Snapshots.Value(),
		EventsRecovered:  int64(c.EventsRecovered.Value()),
		RecordsRecovered: int64(c.RecordsRecovered.Value()),
		TornRecords:      c.TornRecords.Value(),
	}
}

// Counters exposes the log's durability instruments.
func (l *Log) Counters() *Counters { return l.counters }

// RegisterMetrics exposes the log's durability instruments on an exposition
// registry. Their names are fixed, so one log per registry.
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	c := l.counters
	reg.RegisterCounter(c.RecordsAppended, c.EventsAppended, c.BytesAppended, c.Fsyncs, c.Snapshots, c.TornRecords)
	reg.RegisterGauge(c.EventsRecovered, c.RecordsRecovered)
}

// Stats renders the durability instruments for the server's STATS surface
// (together with AppendRun this implements monitor.RunJournal).
func (l *Log) Stats() string {
	s := l.counters.Snapshot()
	return fmt.Sprintf(
		"wal_records=%d wal_events=%d wal_bytes=%d wal_fsyncs=%d wal_snapshots=%d wal_recovered=%d wal_recovered_records=%d wal_torn=%d",
		s.RecordsAppended, s.EventsAppended, s.BytesAppended, s.Fsyncs,
		s.Snapshots, s.EventsRecovered, s.RecordsRecovered, s.TornRecords)
}

// Replay streams the recovered delivered-event sequence — sealed snapshot
// first, then the segment tail — in its original run batching, from the
// mapped parts Open validated. The batch slice is reused between calls.
// Replay runs once, before the first AppendRun; feeding the batches to
// Monitor.DeliverBatch reconstructs the monitor exactly as the uninterrupted
// run built it. The mappings are released when it returns.
func (l *Log) Replay(fn func(batch []model.Event) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	c := l.chain
	l.chain = nil
	l.mu.Unlock()
	if c == nil {
		return fmt.Errorf("wal: Replay after AppendRun or an earlier Replay")
	}
	defer c.Close()
	return c.ReplayRange(0, c.Events(), fn)
}

// releaseChain drops the recovery scan's mappings. Callers hold mu.
func (l *Log) releaseChain() {
	if l.chain != nil {
		l.chain.Close()
		l.chain = nil
	}
}

// AppendRun logs one delivered run [run-atomic] (it implements
// monitor.RunJournal). It returns once the run is durable to the configured
// policy: under SyncAlways the record has been fsynced; under SyncBatch it is
// buffered and will be group-committed within SyncBytes / SyncInterval; under
// SyncNever it is left to the page cache. Once the log has failed, AppendRun
// writes nothing and returns the failure.
func (l *Log) AppendRun(events []model.Event) error {
	if len(events) == 0 {
		return nil
	}
	tr := l.opts.Spans.Get()
	if t := l.opts.AppendTimer; t != nil {
		defer func(start time.Time) { t.ObserveExemplar(time.Since(start), tr.ID()) }(time.Now())
	}
	sp := tr.Begin("wal_append", -1, -1)
	defer tr.End(sp)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.curTrace, l.curSpan = tr, sp
	defer func() { l.curTrace = nil }()
	l.releaseChain()
	for start := 0; start < len(events); {
		end := start + maxEventsPerRecord
		if end >= len(events) {
			end = len(events)
		} else if events[end-1].Kind == model.Sync && events[end].Kind == model.Sync &&
			events[end].Partner == events[end-1].ID && events[end-1].Partner == events[end].ID {
			// Never split a sync pair across records: records are the unit
			// of recovery atomicity and the pair must come back together.
			end--
		}
		chunk := events[start:end]
		l.encBuf = encodeRecord(l.encBuf[:0], chunk)
		if _, err := l.w.Write(l.encBuf); err != nil {
			return l.fail(err)
		}
		l.appended += uint64(len(chunk))
		l.segEvents += uint64(len(chunk))
		l.dirtyBytes += len(l.encBuf)
		l.counters.RecordsAppended.Add(1)
		l.counters.EventsAppended.Add(int64(len(chunk)))
		l.counters.BytesAppended.Add(int64(len(l.encBuf)))
		start = end
	}

	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return err
		}
	case SyncBatch:
		if l.dirtyBytes >= l.opts.SyncBytes {
			if err := l.syncLocked(); err != nil {
				return err
			}
		}
	}

	if l.opts.SnapshotEvery > 0 && !l.compacting &&
		l.appended-l.snapCount >= uint64(l.opts.SnapshotEvery) {
		l.compacting = true
		l.compactWG.Add(1)
		go func() {
			defer l.compactWG.Done()
			l.compact() // a failure is latched; the next AppendRun returns it
		}()
	}
	return nil
}

// fail latches err as the log's failure, unless an earlier one is latched
// already, and returns the latched failure. Callers hold mu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Sync forces buffered records to disk, or returns the log's failure.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked is the group commit: it flushes the buffered records and fsyncs
// the active segment, and, the first time for a fresh segment, then the
// directory that lists it [segment-durable-at-commit]. Nothing counts as
// durable before it returns nil. Callers hold mu.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if l.dirtyBytes == 0 && !l.freshSeg {
		return nil
	}
	var start time.Time
	if l.opts.FsyncTimer != nil || l.curTrace != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	if l.freshSeg {
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return l.fail(err)
		}
		l.freshSeg = false
	}
	l.opts.FsyncTimer.ObserveSince(start)
	if l.curTrace != nil {
		l.curTrace.Span("wal_fsync", -1, l.curSpan, start, time.Since(start))
	}
	l.dirtyBytes = 0
	l.lastSync = time.Now()
	l.counters.Fsyncs.Add(1)
	return nil
}

// tickLoop group-commits on the SyncInterval clock under SyncBatch.
func (l *Log) tickLoop() {
	defer l.tickWG.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirtyBytes > 0 && time.Since(l.lastSync) >= l.opts.SyncInterval {
				l.syncLocked() // a failure is latched; the next AppendRun returns it
			}
			l.mu.Unlock()
		case <-l.stopTick:
			return
		}
	}
}

// Compact cuts a snapshot now: the durable prefix is rewritten as one
// sealed snapshot file, the log rotates to a fresh segment, and the
// superseded files are deleted. Appends continue concurrently into the new
// segment. Compact returns once the snapshot is sealed (or found
// unnecessary), or the log's failure.
func (l *Log) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.compacting {
		l.mu.Unlock()
		l.compactWG.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.err
	}
	l.compacting = true
	l.mu.Unlock()
	return l.compact()
}

// compact does the work; l.compacting is true and will be cleared here.
func (l *Log) compact() error {
	if t := l.opts.SnapshotTimer; t != nil {
		defer func(start time.Time) { t.ObserveSince(start) }(time.Now())
	}
	l.mu.Lock()
	if l.closed {
		l.compacting = false
		l.mu.Unlock()
		return ErrClosed
	}
	// Freeze the active segment (fully synced so the snapshot writer can
	// read it) and rotate appends onto a fresh one.
	err := l.syncLocked()
	cutoff := l.appended
	if err != nil || cutoff == l.snapCount {
		l.compacting = false
		l.mu.Unlock()
		return err
	}
	oldSnapPath, oldSnapCount := l.snapPath, l.snapCount
	frozen := append(append([]segment(nil), l.frozen...),
		segment{path: filepath.Join(l.dir, segName(l.base)), base: l.base, events: l.segEvents})
	oldFile := l.f
	if err := l.newSegment(cutoff); err != nil {
		// The log stops at the cutoff, so a segment the failed rotation left
		// behind starts where the old one ends and Open accepts the pair.
		err = l.fail(err)
		l.compacting = false
		l.mu.Unlock()
		return err
	}
	oldFile.Close()
	l.frozen = frozen
	l.mu.Unlock()

	snapPath, err := l.writeSnapshot(cutoff, oldSnapPath, oldSnapCount, frozen)

	l.mu.Lock()
	l.compacting = false
	if err != nil {
		err = l.fail(err)
		l.mu.Unlock()
		return err
	}
	l.snapPath, l.snapCount = snapPath, cutoff
	l.frozen = nil
	l.mu.Unlock()

	l.counters.Snapshots.Add(1)
	// The snapshot fully covers the old snapshot and the frozen segments;
	// deleting them is safe in any crash order now that the seal is synced.
	if oldSnapPath != "" {
		removeWithSidecar(l.fsys, oldSnapPath)
	}
	for _, seg := range frozen {
		removeWithSidecar(l.fsys, seg.path)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.fail(err)
	}
	return nil
}

// writeSnapshot streams old snapshot + frozen segments into a sealed
// snapshot covering exactly cutoff events.
func (l *Log) writeSnapshot(cutoff uint64, oldSnapPath string, oldSnapCount uint64, segs []segment) (string, error) {
	// The inputs are read as chain parts, the way recovery reads them: every
	// record CRC-checked, no sidecar trusted.
	src := &Chain{fsys: l.fsys, numProcs: l.opts.NumProcs}
	defer src.Close()
	if oldSnapPath != "" {
		p, err := openChainPart(src, oldSnapPath, true, oldSnapCount, false)
		if err != nil {
			return "", err
		}
		src.keep(p)
	}
	for _, seg := range segs {
		p, err := openChainPart(src, seg.path, false, seg.base, false)
		if err != nil {
			return "", err
		}
		src.keep(p)
		if p.events != seg.events {
			return "", fmt.Errorf("wal: %s: frozen segment holds %d valid events, %d were appended", seg.path, p.events, seg.events)
		}
	}
	tmp := filepath.Join(l.dir, fmt.Sprintf("snap-%016x.tmp", cutoff))
	final := filepath.Join(l.dir, snapName(cutoff))
	err := commitFile(l.fsys, tmp, final, true, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<20)
		if err := writeFileHeader(w, snapMagic, cutoff, l.opts.NumProcs); err != nil {
			return err
		}
		var written uint64
		var buf []byte
		if err := src.ReplayRange(0, cutoff, func(batch []model.Event) error {
			buf = encodeRecord(buf[:0], batch)
			written += uint64(len(batch))
			_, err := w.Write(buf)
			return err
		}); err != nil {
			return err
		}
		if written != cutoff {
			return fmt.Errorf("wal: snapshot covers %d events, expected %d", written, cutoff)
		}
		if err := writeSeal(w, cutoff); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return "", err
	}
	return final, nil
}

// Close flushes and fsyncs outstanding records, waits for any running
// compaction, and releases the log. It returns the log's failure, if one
// was latched.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	// Let a running compaction finish before tearing the files down.
	l.compactWG.Wait()
	if l.stopTick != nil {
		close(l.stopTick)
		l.tickWG.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.releaseChain()
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}
