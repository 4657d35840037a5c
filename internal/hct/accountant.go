package hct

import (
	"fmt"

	"repro/internal/model"
)

// Accountant replays a trace's communication structure under a clustering
// configuration and tallies timestamp-size statistics without materializing
// any vectors. The space consumption of the cluster-timestamp algorithm
// depends only on which events end up as noted cluster receives — a function
// of the communication topology and the merge decisions — so the full
// Fidge/Mattern computation can be skipped entirely. The experiment sweeps
// (49 values of maxCS × 4 strategies × the whole corpus) run through this
// path. It drives the same cluster-receive core as the pipeline planner, and
// the two are property-tested to agree.
//
// Accountant is not safe for concurrent use.
type Accountant struct {
	core *clusterer
}

// NewAccountant returns an accountant over numProcs processes.
func NewAccountant(numProcs int, cfg Config) (*Accountant, error) {
	core, err := newClusterer(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	return &Accountant{core: core}, nil
}

// Observe processes one event, classifying it as a noted cluster receive, a
// merged cluster receive, or an ordinary event.
func (a *Accountant) Observe(e model.Event) { a.core.decide(e) }

// ObservePair processes one receive-kind event in compact form: receiver
// process p, sending partner process q — no branch on event kind.
func (a *Accountant) ObservePair(p, q int32) { a.core.receive(p, q) }

// ObserveAll replays the whole trace.
func (a *Accountant) ObserveAll(tr *model.Trace) {
	for _, e := range tr.Events {
		a.Observe(e)
	}
}

// ObserveStream replays a compact receive stream (see model.ReceiveStreamOf)
// extracted from a trace with totalEvents events in all. It is equivalent to
// ObserveAll on the originating trace: non-receive events only contribute to
// the event tally, and the stream preserves delivery order, which is all the
// merge deciders can observe. Each step touches 8 bytes instead of a 24-byte
// model.Event and never branches on the event kind.
func (a *Accountant) ObserveStream(stream []model.ReceivePair, totalEvents int) {
	if totalEvents < len(stream) {
		panic(fmt.Sprintf("hct: ObserveStream with totalEvents=%d < %d stream entries", totalEvents, len(stream)))
	}
	a.core.events += totalEvents - len(stream)
	for _, rp := range stream {
		a.core.receive(rp.P, rp.Q)
	}
}

// Result summarizes a run's space accounting.
type Result struct {
	Events          int
	ClusterReceives int // noted (full-vector) cluster receives
	MergedReceives  int // cluster receives that triggered a merge
	Merges          int
	LiveClusters    int
	MaxLiveCluster  int
	MaxClusterSize  int // the configured bound
}

// Result returns the accumulated statistics.
func (a *Accountant) Result() Result {
	c := a.core
	return Result{
		Events:          c.events,
		ClusterReceives: c.crEvents,
		MergedReceives:  c.mergedCRs,
		Merges:          c.part.Merges(),
		LiveClusters:    c.part.NumLive(),
		MaxLiveCluster:  c.part.MaxLiveSize(),
		MaxClusterSize:  c.maxCS,
	}
}

// AverageRatio returns the ratio of the average cluster-timestamp size to
// the Fidge/Mattern timestamp size under the fixed-size-vector encoding of
// Section 4: Fidge/Mattern timestamps (and noted cluster receives, which
// retain them) occupy fixedVector elements; all other events occupy a vector
// of MaxClusterSize elements. A Fidge/Mattern-only tool therefore scores
// exactly 1.0.
func (r Result) AverageRatio(fixedVector int) float64 {
	return r.AverageRatioWithVector(fixedVector, r.MaxClusterSize)
}

// AverageRatioWithVector is AverageRatio with an explicit cluster-vector
// size. It supports the k-means/k-medoid ablations, whose clusters are not
// size-bounded: an implementation would have to allocate cluster vectors of
// the *largest* cluster produced, so their accounting must use that size
// rather than the nominal maxCS.
func (r Result) AverageRatioWithVector(fixedVector, clusterVector int) float64 {
	if r.Events == 0 {
		return 0
	}
	total := StorageInts(r.Events, r.ClusterReceives, fixedVector, clusterVector)
	return float64(total) / (float64(r.Events) * float64(fixedVector))
}

// ResultOf runs an accountant over the trace with the given configuration
// and returns the summary. The Config's Partition and Decider must be fresh
// (unshared) instances, as the run mutates them.
func ResultOf(tr *model.Trace, cfg Config) (Result, error) {
	a, err := NewAccountant(tr.NumProcs, cfg)
	if err != nil {
		return Result{}, err
	}
	a.ObserveAll(tr)
	return a.Result(), nil
}
