package strategy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/commgraph"
)

func TestMergeOnFirst(t *testing.T) {
	d := NewMergeOnFirst()
	if d.Name() != "merge-1st" {
		t.Fatalf("Name = %q", d.Name())
	}
	if !d.OnClusterReceive(0, 1, 1, 1, true) {
		t.Fatalf("must merge when size permits")
	}
	if d.OnClusterReceive(0, 1, 1, 1, false) {
		t.Fatalf("must not merge when size forbids")
	}
	d.OnMerge(0, 1, 2) // no-op, must not panic
}

func TestNever(t *testing.T) {
	d := NewNever()
	if d.Name() != "static" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.OnClusterReceive(0, 1, 1, 1, true) {
		t.Fatalf("Never merged")
	}
	d.OnMerge(0, 1, 2)
}

func TestMergeOnNthThresholdZeroIsMergeOnFirst(t *testing.T) {
	d := NewMergeOnNth(0)
	if !d.OnClusterReceive(0, 1, 1, 1, true) {
		t.Fatalf("threshold 0 must merge on first communication")
	}
}

func TestMergeOnNthThreshold(t *testing.T) {
	d := NewMergeOnNth(2) // need normalized count > 2
	// Clusters of size 1 and 1: need count > 4.
	for i := 0; i < 4; i++ {
		if d.OnClusterReceive(0, 1, 1, 1, true) {
			t.Fatalf("merged at count %d (normalized %d/2)", i+1, i+1)
		}
	}
	if !d.OnClusterReceive(0, 1, 1, 1, true) {
		t.Fatalf("did not merge at count 5 (normalized 2.5 > 2)")
	}
	if d.counts[pairKey(0, 1)] != 5 || d.counts[pairKey(1, 0)] != 5 {
		t.Fatalf("counts = %d/%d", d.counts[pairKey(0, 1)], d.counts[pairKey(1, 0)])
	}
	// Size bound suppresses merging but still counts.
	d2 := NewMergeOnNth(0)
	if d2.OnClusterReceive(3, 4, 10, 10, false) {
		t.Fatalf("merged despite size bound")
	}
	if d2.counts[pairKey(3, 4)] != 1 {
		t.Fatalf("count not recorded under size bound")
	}
}

func TestMergeOnNthFoldsCountsOnMerge(t *testing.T) {
	d := NewMergeOnNth(100) // never merge; we drive merges manually
	d.OnClusterReceive(0, 2, 1, 1, true)
	d.OnClusterReceive(0, 2, 1, 1, true)
	d.OnClusterReceive(1, 2, 1, 1, true)
	d.OnClusterReceive(0, 1, 1, 1, true) // intra-pair: must vanish on merge
	d.OnMerge(0, 1, 5)
	if got := d.counts[pairKey(5, 2)]; got != 3 {
		t.Fatalf("folded count = %d, want 3", got)
	}
	if got := d.counts[pairKey(2, 5)]; got != 3 {
		t.Fatalf("reverse folded count = %d, want 3", got)
	}
	if got := d.counts[pairKey(5, 0)]; got != 0 {
		t.Fatalf("stale count after fold: %d", got)
	}
	if got := d.counts[pairKey(0, 2)]; got != 0 {
		t.Fatalf("retired cluster still counted: %d", got)
	}
	// Name encodes the threshold.
	if NewMergeOnNth(10).Name() != "merge-nth(10)" {
		t.Fatalf("Name = %q", NewMergeOnNth(10).Name())
	}
}

func TestMergeOnNthNegativeThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMergeOnNth(-1)
}

// ringGraph builds a ring of n processes with w occurrences per edge.
func ringGraph(n int, w int64) *commgraph.Graph {
	g := commgraph.New(n)
	for p := 0; p < n; p++ {
		g.Add(int32(p), int32((p+1)%n), w)
	}
	return g
}

func TestStaticGreedyRespectsMaxCS(t *testing.T) {
	g := ringGraph(12, 10)
	for _, maxCS := range []int{1, 2, 3, 5, 12, 50} {
		groups := StaticGreedy(g, maxCS)
		part, err := cluster.NewFromGroups(12, groups)
		if err != nil {
			t.Fatalf("maxCS=%d: invalid partition: %v", maxCS, err)
		}
		if err := part.Validate(); err != nil {
			t.Fatalf("maxCS=%d: %v", maxCS, err)
		}
		for _, grp := range groups {
			if len(grp) > maxCS {
				t.Fatalf("maxCS=%d: group of size %d", maxCS, len(grp))
			}
		}
	}
}

func TestStaticGreedyMergesCommunicatingPairs(t *testing.T) {
	// Two disjoint heavy pairs plus an isolated process.
	g := commgraph.New(5)
	g.Add(0, 1, 100)
	g.Add(2, 3, 100)
	groups := StaticGreedy(g, 2)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	find := func(p int32) []int32 {
		for _, grp := range groups {
			for _, q := range grp {
				if q == p {
					return grp
				}
			}
		}
		return nil
	}
	if len(find(0)) != 2 || find(0)[1] != 1 {
		t.Fatalf("pair (0,1) not merged: %v", groups)
	}
	if len(find(2)) != 2 || find(2)[1] != 3 {
		t.Fatalf("pair (2,3) not merged: %v", groups)
	}
	if len(find(4)) != 1 {
		t.Fatalf("isolated process merged: %v", groups)
	}
}

func TestStaticGreedyNormalization(t *testing.T) {
	// A dense pair (4,5) with weight 6 normalizes to 3; the big cluster
	// {0,1,2} communicating with 3 at weight 11 normalizes to 11/4 < 3
	// once {0,1,2} has formed. The greedy order must pick (4,5) before
	// attaching 3.
	g := commgraph.New(6)
	g.Add(0, 1, 100)
	g.Add(1, 2, 90)
	g.Add(2, 3, 11)
	g.Add(4, 5, 6)
	groups := StaticGreedy(g, 4)
	// All merges are eventually performed; the point of this test is that
	// the result is a valid partition with every communicating pair
	// co-clustered when size permits.
	part, err := cluster.NewFromGroups(6, groups)
	if err != nil {
		t.Fatal(err)
	}
	if part.ClusterOf(0) != part.ClusterOf(3) {
		t.Fatalf("3 not merged into {0,1,2}: %v", groups)
	}
	if part.ClusterOf(4) != part.ClusterOf(5) {
		t.Fatalf("(4,5) not merged: %v", groups)
	}
	if part.ClusterOf(0) == part.ClusterOf(4) {
		t.Fatalf("non-communicating clusters merged: %v", groups)
	}
}

func TestStaticGreedyDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := commgraph.New(30)
	for i := 0; i < 80; i++ {
		p := int32(r.Intn(30))
		q := int32(r.Intn(30))
		if p == q {
			q = (q + 1) % 30
		}
		g.Add(p, q, int64(1+r.Intn(5)))
	}
	a := StaticGreedy(g, 7)
	for trial := 0; trial < 5; trial++ {
		b := StaticGreedy(g, 7)
		if len(a) != len(b) {
			t.Fatalf("nondeterministic group count")
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("nondeterministic group sizes")
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("nondeterministic members")
				}
			}
		}
	}
}

func TestStaticGreedyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StaticGreedy(commgraph.New(2), 0)
}

func TestStaticGreedyQuickPartitionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := commgraph.New(n)
		for i := 0; i < n*2; i++ {
			p := int32(r.Intn(n))
			q := int32(r.Intn(n))
			if p == q {
				continue
			}
			g.Add(p, q, int64(1+r.Intn(9)))
		}
		maxCS := 1 + r.Intn(n)
		groups := StaticGreedy(g, maxCS)
		part, err := cluster.NewFromGroups(n, groups)
		if err != nil || part.Validate() != nil {
			return false
		}
		for _, grp := range groups {
			if len(grp) > maxCS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKMedoidPartitionAndDeterminism(t *testing.T) {
	g := ringGraph(20, 5)
	a := KMedoid(g, 4, 10)
	part, err := cluster.NewFromGroups(20, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	b := KMedoid(g, 4, 10)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic members")
			}
		}
	}
	// k > n clamps.
	small := KMedoid(commgraph.New(3), 10, 3)
	if _, err := cluster.NewFromGroups(3, small); err != nil {
		t.Fatal(err)
	}
}

func TestKMedoidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KMedoid(commgraph.New(2), 0, 1)
}

func TestKMeansStylePartition(t *testing.T) {
	g := ringGraph(20, 5)
	groups := KMeansStyle(g, 4, 10)
	part, err := cluster.NewFromGroups(20, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	again := KMeansStyle(g, 4, 10)
	if len(groups) != len(again) {
		t.Fatalf("nondeterministic")
	}
	// k > n clamps; empty graph still partitions.
	small := KMeansStyle(commgraph.New(3), 10, 3)
	if _, err := cluster.NewFromGroups(3, small); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansStylePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KMeansStyle(commgraph.New(2), 0, 1)
}

// TestLopsidedClustersFromKMedoid reproduces the qualitative observation of
// Section 3.1: on a hub-and-spoke communication pattern, k-medoid crowds
// most processes into few clusters while StaticGreedy (size-bounded) cannot.
func TestLopsidedClustersFromKMedoid(t *testing.T) {
	// One hub talking to everyone, spokes talking only to the hub.
	n := 30
	g := commgraph.New(n)
	for p := 1; p < n; p++ {
		g.Add(0, int32(p), 50)
	}
	km := KMedoid(g, 6, 10)
	maxKM := 0
	for _, grp := range km {
		if len(grp) > maxKM {
			maxKM = len(grp)
		}
	}
	sg := StaticGreedy(g, 5)
	maxSG := 0
	for _, grp := range sg {
		if len(grp) > maxSG {
			maxSG = len(grp)
		}
	}
	if maxSG > 5 {
		t.Fatalf("StaticGreedy exceeded bound: %d", maxSG)
	}
	if maxKM <= maxSG {
		t.Fatalf("expected k-medoid to crowd a cluster: kmedoid max %d vs greedy max %d", maxKM, maxSG)
	}
}
