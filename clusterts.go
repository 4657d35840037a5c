// Package clusterts is a from-scratch implementation of self-organizing
// hierarchical cluster timestamps and the clustering strategies evaluated in
//
//	P.A.S. Ward, T. Huang, D.J. Taylor,
//	"Clustering Strategies for Cluster Timestamps", ICPP 2004,
//
// together with the monitoring-entity substrate the timestamps live inside:
// an event model for message-passing computations, a partial-order data
// structure, Fidge/Mattern vector timestamps, and a synthetic workload
// corpus reproducing the paper's evaluation.
//
// # Quick start
//
//	b := clusterts.NewBuilder("demo", 4)
//	s := b.Send(0)
//	b.Receive(1, s)
//	tr := b.Trace()
//
//	m, _ := clusterts.NewMonitor(tr.NumProcs, clusterts.Config{
//		MaxClusterSize: 13,
//		Decider:        clusterts.MergeOnFirst(),
//	})
//	_ = m.DeliverAll(tr)
//	before, _ := m.Precedes(s, clusterts.EventID{Process: 1, Index: 1})
//
// The monitor assigns each event a hierarchical cluster timestamp: events
// whose causal history enters their cluster only through noted cluster
// receives store just a projection of their Fidge/Mattern vector over the
// cluster's processes, cutting timestamp storage by up to an order of
// magnitude while answering happened-before queries exactly.
//
// Clustering strategies are pluggable: MergeOnFirst and MergeOnNth are the
// dynamic strategies of the paper; StaticClusters precomputes the greedy
// normalized-communication clustering of Figure 3 for two-pass (offline)
// operation. The workload sub-API regenerates the paper's >50-computation
// evaluation corpus.
package clusterts

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core event-model types, re-exported from the internal implementation.
type (
	// ProcessID identifies a sequential process (thread, OS process,
	// semaphore, concurrent object, ...).
	ProcessID = model.ProcessID
	// EventIndex is the 1-based position of an event within its process.
	EventIndex = model.EventIndex
	// EventID names one event: a (process, index) pair.
	EventID = model.EventID
	// Kind classifies an event: Unary, Send, Receive or Sync.
	Kind = model.Kind
	// Event is one monitored event record.
	Event = model.Event
	// Trace is a complete monitored computation.
	Trace = model.Trace
	// Builder incrementally constructs a valid Trace.
	Builder = model.Builder
	// Stats summarizes a trace's composition.
	TraceStats = model.Stats
)

// Event kinds.
const (
	Unary   = model.Unary
	Send    = model.Send
	Receive = model.Receive
	Sync    = model.Sync
)

// Timestamping types.
type (
	// Config parameterizes a cluster-timestamp run: the maximum cluster
	// size, an optional precomputed partition, and a merge decider.
	Config = hct.Config
	// Timestamp is one event's hierarchical cluster timestamp, handed out
	// by value: a view whose vectors may alias the store and are immutable.
	Timestamp = hct.Timestamp
	// Timestamper computes cluster timestamps and answers precedence
	// queries; most callers use Monitor instead.
	Timestamper = hct.Timestamper
	// Result summarizes a space-accounting run.
	Result = hct.Result
	// Decider is a dynamic clustering strategy.
	Decider = strategy.Decider
	// Partition is a (possibly evolving) clustering of processes.
	Partition = cluster.Partition
	// Monitor is the central monitoring entity: partial-order store plus
	// timestamper plus query interface.
	Monitor = monitor.Monitor
	// Collector feeds a Monitor from concurrent producers, reordering
	// arrivals into a valid delivery order.
	Collector = monitor.Collector
	// CommGraph is a communication graph: pairwise communication-
	// occurrence counts between processes.
	CommGraph = commgraph.Graph
)

// DefaultFixedVector is the fixed timestamp-encoding vector size used by
// POET/OLT-style observation tools (the paper's default of 300).
const DefaultFixedVector = 300

// NewBuilder returns a builder for a computation with numProcs processes.
func NewBuilder(name string, numProcs int) *Builder {
	return model.NewBuilder(name, numProcs)
}

// NewMonitor returns a monitoring entity over numProcs processes.
func NewMonitor(numProcs int, cfg Config) (*Monitor, error) {
	return monitor.New(numProcs, cfg)
}

// NewCollector wraps a monitor for out-of-order, concurrent ingestion.
func NewCollector(m *Monitor) *Collector {
	return monitor.NewCollector(m)
}

// NewTimestamper returns a bare cluster timestamper (no partial-order
// store); use NewMonitor unless you are embedding the timestamp algorithm
// into your own store.
func NewTimestamper(numProcs int, cfg Config) (*Timestamper, error) {
	return hct.NewTimestamper(numProcs, cfg)
}

// MergeOnFirst returns the merge-on-1st-communication strategy: clusters
// merge on the first cluster receive between them whenever the size bound
// permits.
func MergeOnFirst() Decider { return strategy.NewMergeOnFirst() }

// MergeOnNth returns the merge-on-Nth-communication strategy of the paper:
// clusters merge once the count of cluster receives between them, normalized
// by their combined size, exceeds threshold. Threshold 0 degenerates to
// MergeOnFirst.
func MergeOnNth(threshold float64) Decider { return strategy.NewMergeOnNth(threshold) }

// NeverMerge returns the strategy for fixed clusterings: clusters never
// merge during timestamping.
func NeverMerge() Decider { return strategy.NewNever() }

// CommunicationGraph extracts the communication graph of a trace: the
// number of communication occurrences between each pair of processes, with
// synchronous pairs counting twice.
func CommunicationGraph(t *Trace) *CommGraph { return commgraph.FromTrace(t) }

// StaticClusters runs the static greedy clustering algorithm of Figure 3
// over the trace's communication graph and returns the resulting partition,
// for use as Config.Partition in a second (timestamping) pass.
func StaticClusters(t *Trace, maxClusterSize int) (*Partition, error) {
	groups := strategy.StaticGreedy(commgraph.FromTrace(t), maxClusterSize)
	return cluster.NewFromGroups(t.NumProcs, groups)
}

// ContiguousClusters returns the fixed contiguous clustering baseline:
// processes in consecutive blocks of maxClusterSize.
func ContiguousClusters(numProcs, maxClusterSize int) (*Partition, error) {
	return cluster.NewFromGroups(numProcs, cluster.Contiguous(numProcs, maxClusterSize))
}

// SpaceAccounting replays just the communication structure of a trace under
// cfg and returns the cluster-receive and storage statistics, without
// materializing any timestamps. This is the fast path behind the paper's
// parameter sweeps.
func SpaceAccounting(t *Trace, cfg Config) (Result, error) {
	return hct.ResultOf(t, cfg)
}

// WriteTrace writes a trace in the compact binary format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.WriteBinary(w, t) }

// ReadTrace reads a binary-format trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceText writes a trace in the line-oriented text format.
func WriteTraceText(w io.Writer, t *Trace) error { return trace.WriteText(w, t) }

// ReadTraceText reads a text-format trace.
func ReadTraceText(r io.Reader) (*Trace, error) { return trace.ReadText(r) }

// Future-work variants of Section 5 of the paper.
type (
	// BatchConfig parameterizes NewBatchTimestamper.
	BatchConfig = hct.BatchConfig
	// BatchTimestamper buffers an initial batch of events with full
	// Fidge/Mattern vectors, then static-clusters the observed
	// communication and continues with cluster timestamps.
	BatchTimestamper = hct.BatchTimestamper
	// MigrateConfig parameterizes NewMigratingTimestamper.
	MigrateConfig = hct.MigrateConfig
	// MigratingTimestamper lets processes migrate between clusters when
	// their initial placement proves poor.
	MigratingTimestamper = hct.MigratingTimestamper
)

// NewBatchTimestamper returns the batch-then-static-cluster variant
// (Section 5, first future-work direction).
func NewBatchTimestamper(numProcs int, cfg BatchConfig) (*BatchTimestamper, error) {
	return hct.NewBatchTimestamper(numProcs, cfg)
}

// NewMigratingTimestamper returns the cluster-migration variant (Section 5,
// second future-work direction).
func NewMigratingTimestamper(numProcs int, cfg MigrateConfig) (*MigratingTimestamper, error) {
	return hct.NewMigratingTimestamper(numProcs, cfg)
}

// Multi-level hierarchy (the recursive scheme of Section 2.3; the paper's
// evaluation uses two levels, which NewHierarchy with one size reproduces).
type (
	// Hierarchy is a static multi-level clustering: clusters of clusters,
	// recursively.
	Hierarchy = hct.Hierarchy
	// HierTimestamper assigns multi-level hierarchical cluster
	// timestamps under a static Hierarchy.
	HierTimestamper = hct.HierTimestamper
)

// NewHierarchy builds a static multi-level clustering over the trace's
// communication graph; sizes[l] bounds the process count of a level-l
// cluster and must be strictly increasing.
func NewHierarchy(t *Trace, sizes []int) (*Hierarchy, error) {
	return hct.BuildHierarchy(commgraph.FromTrace(t), sizes)
}

// NewHierTimestamper returns a timestamper over a static hierarchy; sizes
// must match the hierarchy's levels (the encoding vector size per level).
func NewHierTimestamper(h *Hierarchy, sizes []int) (*HierTimestamper, error) {
	return hct.NewHierTimestamper(h, sizes)
}

// WorkloadSpec describes one synthetic corpus computation.
type WorkloadSpec = workload.Spec

// Corpus returns the full synthetic evaluation corpus (>50 computations over
// PVM-, Java- and DCE-style environments, up to 300 processes).
func Corpus() []WorkloadSpec { return workload.Corpus() }

// FindWorkload returns the corpus computation with the given name.
func FindWorkload(name string) (WorkloadSpec, bool) { return workload.Find(name) }
