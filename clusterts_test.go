package clusterts_test

import (
	"bytes"
	"testing"

	clusterts "repro"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end to
// end through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	b := clusterts.NewBuilder("demo", 4)
	u := b.Unary(0)
	s := b.Send(0)
	r := b.Receive(1, s)
	b.Sync(2, 3)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	m, err := clusterts.NewMonitor(tr.NumProcs, clusterts.Config{
		MaxClusterSize: 13,
		Decider:        clusterts.MergeOnFirst(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverAll(tr); err != nil {
		t.Fatal(err)
	}
	before, err := m.Precedes(u, r)
	if err != nil || !before {
		t.Fatalf("Precedes = %v, %v", before, err)
	}
	conc, err := m.Concurrent(u, clusterts.EventID{Process: 2, Index: 1})
	if err != nil || !conc {
		t.Fatalf("Concurrent = %v, %v", conc, err)
	}
	if ts, ok := m.Timestamp(r); !ok || ts.ID != r {
		t.Fatal("missing timestamp")
	}
}

func TestPublicAPIStaticTwoPass(t *testing.T) {
	spec, ok := clusterts.FindWorkload("pvm/ring-44")
	if !ok {
		t.Fatal("corpus workload missing")
	}
	tr := spec.Generate()

	part, err := clusterts.StaticClusters(tr, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clusterts.SpaceAccounting(tr, clusterts.Config{
		MaxClusterSize: 13,
		Partition:      part,
		Decider:        clusterts.NeverMerge(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.AverageRatio(clusterts.DefaultFixedVector)
	if ratio <= 0 || ratio >= 0.5 {
		t.Fatalf("static clustering ratio %f out of expected range", ratio)
	}

	contig, err := clusterts.ContiguousClusters(tr.NumProcs, 13)
	if err != nil {
		t.Fatal(err)
	}
	if contig.NumLive() == 0 {
		t.Fatal("no contiguous clusters")
	}
}

func TestPublicAPIStrategies(t *testing.T) {
	if clusterts.MergeOnFirst().Name() == "" || clusterts.MergeOnNth(10).Name() == "" || clusterts.NeverMerge().Name() == "" {
		t.Fatal("strategy names empty")
	}
}

func TestPublicAPICommunicationGraph(t *testing.T) {
	b := clusterts.NewBuilder("g", 2)
	b.Message(0, 1)
	tr := b.Trace()
	g := clusterts.CommunicationGraph(tr)
	if g.Count(0, 1) != 1 {
		t.Fatalf("Count = %d", g.Count(0, 1))
	}
}

func TestPublicAPITraceIO(t *testing.T) {
	b := clusterts.NewBuilder("io", 2)
	b.Message(0, 1)
	tr := b.Trace()

	var bin bytes.Buffer
	if err := clusterts.WriteTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	back, err := clusterts.ReadTrace(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEvents() != tr.NumEvents() {
		t.Fatal("binary round-trip mismatch")
	}

	var txt bytes.Buffer
	if err := clusterts.WriteTraceText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	back2, err := clusterts.ReadTraceText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	if back2.NumEvents() != tr.NumEvents() {
		t.Fatal("text round-trip mismatch")
	}
}

func TestPublicAPICorpus(t *testing.T) {
	specs := clusterts.Corpus()
	if len(specs) < 50 {
		t.Fatalf("corpus size %d", len(specs))
	}
	if _, ok := clusterts.FindWorkload(specs[0].Name); !ok {
		t.Fatal("FindWorkload missed first spec")
	}
	if _, ok := clusterts.FindWorkload("nope"); ok {
		t.Fatal("FindWorkload invented a spec")
	}
}

func TestPublicAPITimestamperAndCollector(t *testing.T) {
	ts, err := clusterts.NewTimestamper(2, clusterts.Config{MaxClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", ts.NumProcs())
	}
	m, err := clusterts.NewMonitor(2, clusterts.Config{MaxClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := clusterts.NewCollector(m)
	b := clusterts.NewBuilder("c", 2)
	b.Message(0, 1)
	tr := b.Trace()
	// Submit receive before send: the collector must reorder.
	if err := c.Submit(tr.Events[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(300).Events; got != 2 {
		t.Fatalf("delivered %d events", got)
	}
}

func TestPublicAPIHierarchy(t *testing.T) {
	spec, ok := clusterts.FindWorkload("pvm/ring-44")
	if !ok {
		t.Fatal("corpus workload missing")
	}
	tr := spec.Generate()
	h, err := clusterts.NewHierarchy(tr, []int{6, 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	ht, err := clusterts.NewHierTimestamper(h, []int{6, 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := ht.ObserveAll(tr); err != nil {
		t.Fatal(err)
	}
	if ht.Events() != tr.NumEvents() {
		t.Fatalf("Events = %d", ht.Events())
	}
	// Deeper levels must not cost more than charging everything flat at
	// the top explicit level.
	if ht.StorageInts(clusterts.DefaultFixedVector) <= 0 {
		t.Fatal("no storage accounted")
	}
	got, err := ht.Precedes(tr.Events[0].ID, tr.Events[len(tr.Events)-1].ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = got
}
