// Package strategy implements the clustering strategies evaluated in the
// paper:
//
//   - merge-on-1st-communication (the original dynamic strategy),
//   - merge-on-Nth-communication with a normalized cluster-receive
//     threshold (Section 3.2),
//   - the static greedy normalized-communication clustering of Figure 3,
//   - fixed contiguous clusters (the earlier-work baseline), and
//   - the k-means-style and k-medoid approaches Section 3.1 reports
//     implementing and rejecting.
//
// Dynamic strategies implement Decider, consulted by the cluster-timestamp
// engine each time a cluster receive is observed. Static strategies produce
// a process partition up front from the communication graph.
package strategy

import (
	"fmt"

	"repro/internal/cluster"
)

// Decider is a dynamic clustering strategy. The cluster-timestamp engine
// consults it once per observed cluster receive; the decider may update
// internal statistics and directs whether the two clusters merge now.
//
// Deciders see events exactly once and never revisit a placement, matching
// the constraint of Section 1.2: once a process is placed in a cluster, that
// placement never changes (clusters only grow by merging).
type Decider interface {
	// Name returns a short stable identifier for reports.
	Name() string
	// OnClusterReceive is invoked for a cluster receive whose receiver
	// lies in live cluster a and whose sender lies in live cluster b
	// (a != b). sizeOK reports whether |a| + |b| <= maxCS. The return
	// value directs an immediate merge; implementations must only return
	// true when sizeOK is true.
	OnClusterReceive(a, b cluster.ID, sizeA, sizeB int, sizeOK bool) bool
	// OnMerge informs the decider that clusters a and b were merged into
	// the new cluster c, so pair statistics can be folded.
	OnMerge(a, b, c cluster.ID)
}

// MergeOnFirst is the merge-on-1st-communication strategy: merge the two
// clusters on the first cluster receive between them, whenever the size
// bound permits.
type MergeOnFirst struct{}

// NewMergeOnFirst returns the merge-on-1st-communication decider.
func NewMergeOnFirst() *MergeOnFirst { return &MergeOnFirst{} }

// Name implements Decider.
func (*MergeOnFirst) Name() string { return "merge-1st" }

// OnClusterReceive implements Decider: always merge if size permits.
func (*MergeOnFirst) OnClusterReceive(_, _ cluster.ID, _, _ int, sizeOK bool) bool {
	return sizeOK
}

// OnMerge implements Decider (stateless).
func (*MergeOnFirst) OnMerge(_, _, _ cluster.ID) {}

// Never is the decider for static and fixed clusterings: clusters never
// merge during timestamping.
type Never struct{}

// NewNever returns the never-merge decider.
func NewNever() *Never { return &Never{} }

// Name implements Decider.
func (*Never) Name() string { return "static" }

// OnClusterReceive implements Decider.
func (*Never) OnClusterReceive(_, _ cluster.ID, _, _ int, _ bool) bool { return false }

// OnMerge implements Decider.
func (*Never) OnMerge(_, _, _ cluster.ID) {}

// MergeOnNth is the merge-on-Nth-communication strategy of Section 3.2. It
// keeps a matrix of the total number of cluster receives observed so far
// between each pair of live clusters, normalized by the combined size of the
// pair, and merges when the normalized count exceeds Threshold. With
// Threshold = 0 it degenerates to merge-on-1st-communication.
//
// The matrix is stored as one flat map keyed by the packed unordered cluster
// pair, so the per-receive hot path costs a single lookup and a single store.
// Per-cluster partner lists (dense slices — cluster IDs are allocated
// sequentially) are appended to only on a pair's first receive and are read
// only when a merge folds the retired clusters' counts; a list may retain
// partners that have since merged away, which folding detects by the absence
// of the packed count key.
type MergeOnNth struct {
	// Threshold is the normalized cluster-receive count that must be
	// exceeded before a merge.
	Threshold float64
	// counts maps pairKey(a, b) to the cluster receives recorded between
	// live clusters a and b.
	counts map[uint64]int64
	// partners[id] lists clusters that have ever had a counted pair with
	// id; entries whose pair key has been deleted are stale.
	partners [][]cluster.ID
}

// pairKey packs an unordered cluster pair into one map key.
func pairKey(a, b cluster.ID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// NewMergeOnNth returns a merge-on-Nth decider with the given normalized
// threshold.
func NewMergeOnNth(threshold float64) *MergeOnNth {
	if threshold < 0 {
		panic(fmt.Sprintf("strategy: negative threshold %f", threshold))
	}
	return &MergeOnNth{
		Threshold: threshold,
		counts:    make(map[uint64]int64),
	}
}

// Name implements Decider.
func (m *MergeOnNth) Name() string { return fmt.Sprintf("merge-nth(%g)", m.Threshold) }

// Reset discards all pair statistics, returning the decider to its initial
// state so sweep harnesses can reuse one instance per worker across many
// replays instead of reallocating the count matrix for every sweep point.
func (m *MergeOnNth) Reset() {
	clear(m.counts)
	for i := range m.partners {
		m.partners[i] = m.partners[i][:0]
	}
}

// noted records that a and b have a counted pair, growing the dense partner
// table as cluster IDs are first seen.
func (m *MergeOnNth) noted(a, b cluster.ID) {
	hi := a
	if b > hi {
		hi = b
	}
	for len(m.partners) <= int(hi) {
		m.partners = append(m.partners, nil)
	}
	m.partners[a] = append(m.partners[a], b)
	m.partners[b] = append(m.partners[b], a)
}

// OnClusterReceive implements Decider.
func (m *MergeOnNth) OnClusterReceive(a, b cluster.ID, sizeA, sizeB int, sizeOK bool) bool {
	k := pairKey(a, b)
	n := m.counts[k] + 1
	m.counts[k] = n
	if n == 1 {
		m.noted(a, b)
	}
	if !sizeOK {
		return false
	}
	norm := float64(n) / float64(sizeA+sizeB)
	return norm > m.Threshold
}

// OnMerge implements Decider: fold a's and b's pair counts into c's,
// re-keying the entries shared with each surviving partner.
func (m *MergeOnNth) OnMerge(a, b, c cluster.ID) {
	delete(m.counts, pairKey(a, b)) // both operands retire with the merge
	for _, old := range [2]cluster.ID{a, b} {
		if int(old) >= len(m.partners) {
			continue
		}
		for _, partner := range m.partners[old] {
			if partner == a || partner == b {
				continue // intra-merge counts disappear
			}
			k := pairKey(old, partner)
			n, ok := m.counts[k]
			if !ok {
				continue // stale: partner merged away earlier
			}
			delete(m.counts, k)
			ck := pairKey(c, partner)
			if prev := m.counts[ck]; prev == 0 {
				m.noted(c, partner)
			}
			m.counts[ck] += n
		}
		m.partners[old] = m.partners[old][:0]
	}
}
