// Package hct implements the self-organizing hierarchical cluster timestamp
// of Ward and Taylor as described in Section 2.3 of the paper, parameterized
// by the clustering strategies of Section 3.
//
// Processes are grouped into clusters. An event whose causal history enters
// its cluster only through already-noted cluster receives can be
// timestamped with the projection of its Fidge/Mattern vector over just the
// cluster's processes — O(c) space instead of O(N). Cluster receives (receive
// events whose matching send lies outside the receiver's cluster) either
// trigger a cluster merge, directed by the clustering strategy, or retain
// their full Fidge/Mattern timestamp and are noted as the greatest cluster
// receive of their process so far. Precedence queries route through those
// noted cluster receives.
package hct

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/vclock"
)

// Timestamp is one event's hierarchical cluster timestamp. For the pipeline
// (and so the Timestamper façade, the monitor and replay) it is the read-time
// view of a stored cell (store.go), built by value on request: copying one is
// cheap, and Proj and Full may alias the store's arena and must not be modified.
//
// Exactly one of (Cluster, Proj) and Full is populated:
//
//   - Ordinary events carry Proj, the projection of the event's
//     Fidge/Mattern vector over Cluster.Members. Cluster is the receiver's
//     cluster at stamping time (its cluster epoch); the Info is immutable,
//     so the timestamp's domain is stable even as the live partition merges.
//   - Cluster receives that were not merged carry Full, the complete
//     Fidge/Mattern vector.
type Timestamp struct {
	ID   model.EventID
	Kind model.Kind

	Cluster *cluster.Info
	Proj    []int32

	Full vclock.Clock
}

// component returns FM(e)[p] if it is derivable from this timestamp alone:
// always for cluster receives, and for projection timestamps only when p is
// in the timestamp's cluster.
func (t Timestamp) component(p model.ProcessID) (int32, bool) {
	if t.Full != nil {
		if int(p) < 0 || int(p) >= len(t.Full) {
			return 0, false
		}
		return t.Full[p], true
	}
	pos, ok := t.Cluster.PosOf(int32(p))
	if !ok {
		return 0, false
	}
	return t.Proj[pos], true
}

// StorageInts returns the number of vector elements this timestamp occupies
// under the fixed-size-vector encoding of existing observation tools
// (Section 4): full timestamps occupy the fixed encoding vector, projection
// timestamps occupy a vector of size maxCS.
func (t Timestamp) StorageInts(fixedVector, maxCS int) int {
	if t.Full != nil {
		return fixedVector
	}
	return maxCS
}

// String renders the timestamp for debugging.
func (t Timestamp) String() string {
	if t.Full != nil {
		return fmt.Sprintf("%v CR %v", t.ID, t.Full)
	}
	return fmt.Sprintf("%v %v over %v", t.ID, t.Proj, t.Cluster)
}
