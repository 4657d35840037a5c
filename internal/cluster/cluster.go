// Package cluster provides the process-partition bookkeeping used by the
// hierarchical cluster timestamp: disjoint clusters of processes that may
// merge over time (dynamic strategies) or be fixed up front (static
// strategies).
//
// Clusters are immutable once created: a merge retires the two operands and
// creates a fresh cluster with a new ID holding the union of their members.
// Events therefore keep a stable reference to the cluster they were stamped
// against (their "cluster epoch") even as the live partition evolves — the
// property the cluster-timestamp precedence test relies on.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// ID identifies a cluster. IDs are never reused within a Partition.
type ID int32

// Info describes one (possibly retired) cluster. Members is sorted and must
// not be mutated by callers.
type Info struct {
	ID      ID
	Members []int32 // sorted process ids
}

// Size returns the number of processes in the cluster.
func (c *Info) Size() int { return len(c.Members) }

// Contains reports whether process p is a member.
func (c *Info) Contains(p int32) bool {
	_, ok := c.PosOf(p)
	return ok
}

// PosOf returns the position of process p within Members, for indexing a
// projection timestamp. The second result is false if p is not a member. It
// is a binary search of the sorted members: a precedence query asks once, and
// over a cluster of maxCS that is a few compares on a line or two the query
// reads anyway, where a map cost a hash and a probe.
func (c *Info) PosOf(p int32) (int, bool) {
	return slices.BinarySearch(c.Members, p)
}

// String renders the cluster compactly.
func (c *Info) String() string { return fmt.Sprintf("c%d%v", c.ID, c.Members) }

func newInfo(id ID, members []int32) *Info {
	return &Info{ID: id, Members: members}
}

// Partition tracks the live clustering of numProcs processes.
//
// Partition is not safe for concurrent use.
type Partition struct {
	numProcs int
	byProc   []*Info      // current cluster of each process
	live     map[ID]*Info // live clusters
	nextID   ID
	merges   int
}

// NewSingletons returns the initial partition of the dynamic algorithms:
// every process in its own cluster.
func NewSingletons(numProcs int) *Partition {
	if numProcs <= 0 {
		panic(fmt.Sprintf("cluster: NewSingletons with numProcs=%d", numProcs))
	}
	p := &Partition{
		numProcs: numProcs,
		byProc:   make([]*Info, numProcs),
		live:     make(map[ID]*Info, numProcs),
	}
	for i := 0; i < numProcs; i++ {
		inf := newInfo(ID(i), []int32{int32(i)})
		p.byProc[i] = inf
		p.live[inf.ID] = inf
	}
	p.nextID = ID(numProcs)
	return p
}

// NewFromGroups returns a partition with the given clusters. Every process
// in [0,numProcs) must appear in exactly one group; groups need not be
// sorted. This is the entry point for static clustering strategies.
func NewFromGroups(numProcs int, groups [][]int32) (*Partition, error) {
	p := &Partition{
		numProcs: numProcs,
		byProc:   make([]*Info, numProcs),
		live:     make(map[ID]*Info, len(groups)),
	}
	for _, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: empty group")
		}
		members := append([]int32(nil), g...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		inf := newInfo(p.nextID, members)
		p.nextID++
		for _, proc := range members {
			if proc < 0 || int(proc) >= numProcs {
				return nil, fmt.Errorf("cluster: process %d out of range [0,%d)", proc, numProcs)
			}
			if p.byProc[proc] != nil {
				return nil, fmt.Errorf("cluster: process %d in multiple groups", proc)
			}
			p.byProc[proc] = inf
		}
		p.live[inf.ID] = inf
	}
	for proc, inf := range p.byProc {
		if inf == nil {
			return nil, fmt.Errorf("cluster: process %d in no group", proc)
		}
	}
	return p, nil
}

// Contiguous returns the fixed-contiguous-cluster groups evaluated in Ward's
// earlier work: processes 0..numProcs-1 in consecutive blocks of size
// maxCS (the final block may be smaller).
func Contiguous(numProcs, maxCS int) [][]int32 {
	if maxCS < 1 {
		maxCS = 1
	}
	var groups [][]int32
	for lo := 0; lo < numProcs; lo += maxCS {
		hi := lo + maxCS
		if hi > numProcs {
			hi = numProcs
		}
		g := make([]int32, 0, hi-lo)
		for p := lo; p < hi; p++ {
			g = append(g, int32(p))
		}
		groups = append(groups, g)
	}
	return groups
}

// Clone returns an independent partition in the same state as p. The
// immutable Info records are shared, not copied — a merge in either
// partition creates fresh Infos and cannot disturb the other — so cloning
// skips the per-cluster member-set allocation that makes NewSingletons
// expensive. Sweep harnesses replaying many configurations over the same
// process set keep one prototype and Clone it per replay.
func (p *Partition) Clone() *Partition {
	q := &Partition{
		numProcs: p.numProcs,
		byProc:   append([]*Info(nil), p.byProc...),
		live:     make(map[ID]*Info, len(p.live)),
		nextID:   p.nextID,
		merges:   p.merges,
	}
	for id, inf := range p.live {
		q.live[id] = inf
	}
	return q
}

// NumProcs returns the number of processes partitioned.
func (p *Partition) NumProcs() int { return p.numProcs }

// NumLive returns the number of live clusters.
func (p *Partition) NumLive() int { return len(p.live) }

// Merges returns the number of merges performed.
func (p *Partition) Merges() int { return p.merges }

// ClusterOf returns the live cluster containing process proc.
func (p *Partition) ClusterOf(proc int32) *Info {
	if proc < 0 || int(proc) >= p.numProcs {
		panic(fmt.Sprintf("cluster: ClusterOf(%d) out of range", proc))
	}
	return p.byProc[proc]
}

// Lookup returns the live cluster with the given ID, if any. Retired
// clusters are not found.
func (p *Partition) Lookup(id ID) (*Info, bool) {
	inf, ok := p.live[id]
	return inf, ok
}

// Live returns the live clusters in ascending ID order.
func (p *Partition) Live() []*Info {
	out := make([]*Info, 0, len(p.live))
	for _, inf := range p.live {
		out = append(out, inf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Merge retires clusters a and b and returns the new cluster holding the
// union of their members. It panics if either ID is not live or if a == b;
// merge decisions are made by strategies, which only see live clusters.
func (p *Partition) Merge(a, b ID) *Info {
	if a == b {
		panic(fmt.Sprintf("cluster: Merge(%d,%d) of identical clusters", a, b))
	}
	ca, ok := p.live[a]
	if !ok {
		panic(fmt.Sprintf("cluster: Merge of retired cluster %d", a))
	}
	cb, ok := p.live[b]
	if !ok {
		panic(fmt.Sprintf("cluster: Merge of retired cluster %d", b))
	}
	members := make([]int32, 0, len(ca.Members)+len(cb.Members))
	i, j := 0, 0
	for i < len(ca.Members) && j < len(cb.Members) {
		if ca.Members[i] < cb.Members[j] {
			members = append(members, ca.Members[i])
			i++
		} else {
			members = append(members, cb.Members[j])
			j++
		}
	}
	members = append(members, ca.Members[i:]...)
	members = append(members, cb.Members[j:]...)

	merged := newInfo(p.nextID, members)
	p.nextID++
	delete(p.live, a)
	delete(p.live, b)
	p.live[merged.ID] = merged
	for _, proc := range members {
		p.byProc[proc] = merged
	}
	p.merges++
	return merged
}

// Migrate moves process proc out of its current cluster into the live
// cluster dst, retiring both affected clusters and creating fresh Infos (so
// existing cluster epochs held by timestamps stay immutable). It returns the
// new source and destination clusters; the new source is nil when proc was
// the last member of its old cluster (which is simply retired).
//
// Migration supports the second future-work variant of Section 5 of the
// paper: processes permitted to move between clusters when the clustering
// initially selected proves poor.
func (p *Partition) Migrate(proc int32, dst ID) (newSrc, newDst *Info) {
	if proc < 0 || int(proc) >= p.numProcs {
		panic(fmt.Sprintf("cluster: Migrate(%d) out of range", proc))
	}
	src := p.byProc[proc]
	to, ok := p.live[dst]
	if !ok {
		panic(fmt.Sprintf("cluster: Migrate into retired cluster %d", dst))
	}
	if src.ID == dst {
		panic(fmt.Sprintf("cluster: Migrate(%d) into its own cluster", proc))
	}

	// New source cluster without proc.
	if src.Size() > 1 {
		members := make([]int32, 0, src.Size()-1)
		for _, q := range src.Members {
			if q != proc {
				members = append(members, q)
			}
		}
		newSrc = newInfo(p.nextID, members)
		p.nextID++
		p.live[newSrc.ID] = newSrc
		for _, q := range members {
			p.byProc[q] = newSrc
		}
	}
	delete(p.live, src.ID)

	// New destination cluster with proc inserted in order.
	members := make([]int32, 0, to.Size()+1)
	inserted := false
	for _, q := range to.Members {
		if !inserted && proc < q {
			members = append(members, proc)
			inserted = true
		}
		members = append(members, q)
	}
	if !inserted {
		members = append(members, proc)
	}
	newDst = newInfo(p.nextID, members)
	p.nextID++
	delete(p.live, to.ID)
	p.live[newDst.ID] = newDst
	for _, q := range members {
		p.byProc[q] = newDst
	}
	return newSrc, newDst
}

// Validate checks the partition invariants: live clusters are disjoint,
// cover every process, and agree with the per-process map.
func (p *Partition) Validate() error {
	seen := make(map[int32]ID, p.numProcs)
	for id, inf := range p.live {
		if inf.ID != id {
			return fmt.Errorf("cluster: live map key %d holds cluster %d", id, inf.ID)
		}
		for k, proc := range inf.Members {
			if k > 0 && inf.Members[k-1] >= proc {
				return fmt.Errorf("cluster: cluster %d members unsorted", id)
			}
			if prev, dup := seen[proc]; dup {
				return fmt.Errorf("cluster: process %d in clusters %d and %d", proc, prev, id)
			}
			seen[proc] = id
			if p.byProc[proc] != inf {
				return fmt.Errorf("cluster: byProc[%d] disagrees with cluster %d", proc, id)
			}
			if pos, ok := inf.PosOf(proc); !ok || inf.Members[pos] != proc {
				return fmt.Errorf("cluster: PosOf misses member %d of cluster %d", proc, id)
			}
		}
	}
	if len(seen) != p.numProcs {
		return fmt.Errorf("cluster: %d processes covered, want %d", len(seen), p.numProcs)
	}
	return nil
}

// LiveSizesInto appends the sizes of the live clusters, in no particular
// order, to buf and returns it, letting periodic scrape paths reuse one
// buffer. The telemetry plane renders these as the live cluster-size
// distribution.
func (p *Partition) LiveSizesInto(buf []int) []int {
	for _, inf := range p.live {
		buf = append(buf, inf.Size())
	}
	return buf
}

// MaxLiveSize returns the size of the largest live cluster.
func (p *Partition) MaxLiveSize() int {
	max := 0
	for _, inf := range p.live {
		if inf.Size() > max {
			max = inf.Size()
		}
	}
	return max
}
