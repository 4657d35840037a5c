package hct

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/model"
	"repro/internal/strategy"
)

// staticTestTrace mixes async messages, a sync pair and unary events across
// two well-separated process groups, so partitions that respect or cut the
// groups give distinct counts.
func staticTestTrace(t *testing.T) *model.Trace {
	t.Helper()
	b := model.NewBuilder("hct-static-test", 6)
	b.Message(0, 1)
	b.Message(1, 2)
	b.Unary(0)
	b.Sync(3, 4)
	b.Message(4, 5)
	b.Message(2, 3) // the one cross-group message
	b.Message(1, 0)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStaticResultMatchesReplay(t *testing.T) {
	tr := staticTestTrace(t)
	g := commgraph.FromTrace(tr)

	groupings := map[string][][]int32{
		"singletons": nil, // nil partition: the fast path
		"two-halves": {{0, 1, 2}, {3, 4, 5}},
		"pairs":      {{0, 1}, {2, 3}, {4, 5}},
		"one-odd":    {{0}, {1, 2, 3, 4, 5}},
	}
	for name, groups := range groupings {
		var part *cluster.Partition
		if groups != nil {
			var err error
			part, err = cluster.NewFromGroups(tr.NumProcs, groups)
			if err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{MaxClusterSize: 6, Partition: part}
		got, err := StaticResult(g, tr.NumEvents(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// The replay accountant mutates its partition; give it its own.
		replayCfg := Config{MaxClusterSize: 6}
		if groups != nil {
			replayCfg.Partition, err = cluster.NewFromGroups(tr.NumProcs, groups)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := ResultOf(tr, replayCfg)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: StaticResult %+v != replay %+v", name, got, want)
		}
	}
}

func TestStaticResultRejectsBadConfig(t *testing.T) {
	tr := staticTestTrace(t)
	g := commgraph.FromTrace(tr)

	if _, err := StaticResult(g, tr.NumEvents(), Config{MaxClusterSize: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MaxClusterSize=0: got %v, want ErrBadConfig", err)
	}
	if _, err := StaticResult(g, -1, Config{MaxClusterSize: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative totalEvents: got %v, want ErrBadConfig", err)
	}
	if _, err := StaticResult(g, tr.NumEvents(), Config{MaxClusterSize: 4, Decider: strategy.NewNever()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-nil decider: got %v, want ErrBadConfig", err)
	}
	small := cluster.NewSingletons(2)
	if _, err := StaticResult(g, tr.NumEvents(), Config{MaxClusterSize: 4, Partition: small}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mismatched partition: got %v, want ErrBadConfig", err)
	}
}

func TestObserveStreamMatchesObserveAll(t *testing.T) {
	tr := staticTestTrace(t)
	stream := model.ReceiveStreamOf(tr)

	for _, maxCS := range []int{1, 2, 3, 6} {
		all, err := NewAccountant(tr.NumProcs, Config{MaxClusterSize: maxCS, Decider: &mergeFirstDecider{}})
		if err != nil {
			t.Fatal(err)
		}
		all.ObserveAll(tr)

		st, err := NewAccountant(tr.NumProcs, Config{MaxClusterSize: maxCS, Decider: &mergeFirstDecider{}})
		if err != nil {
			t.Fatal(err)
		}
		st.ObserveStream(stream, tr.NumEvents())

		if all.Result() != st.Result() {
			t.Errorf("maxCS=%d: ObserveAll %+v != ObserveStream %+v", maxCS, all.Result(), st.Result())
		}
	}
}

func TestObserveStreamPanicsOnShortTotal(t *testing.T) {
	tr := staticTestTrace(t)
	stream := model.ReceiveStreamOf(tr)
	a, err := NewAccountant(tr.NumProcs, Config{MaxClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for totalEvents < len(stream)")
		}
	}()
	a.ObserveStream(stream, len(stream)-1)
}

// mergeFirstDecider mirrors strategy.MergeOnFirst without importing strategy.
type mergeFirstDecider struct{}

func (*mergeFirstDecider) Name() string { return "merge-1st" }
func (*mergeFirstDecider) OnClusterReceive(_, _ cluster.ID, _, _ int, sizeOK bool) bool {
	return sizeOK
}
func (*mergeFirstDecider) OnMerge(_, _, _ cluster.ID) {}
