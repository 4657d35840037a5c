package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// oracleCollector is the Collector's enablement state machine as it stood
// when the collector kept its own copy of the delivery-contract state (next,
// sentPartner) beside the planner's: kept, for FuzzJournaledImpliesPlannable
// alone, as the reference for what a stream's accepted counts and held set
// are. It delivers nowhere.
type oracleCollector struct {
	pending     []map[model.EventIndex]model.Event
	next        []model.EventIndex
	held        int
	sentPartner map[model.EventID]model.EventID
	syncWaiters map[model.EventID]int
	inWork      []bool
}

func newOracleCollector(n int) *oracleCollector {
	c := &oracleCollector{
		pending:     make([]map[model.EventIndex]model.Event, n),
		next:        make([]model.EventIndex, n),
		sentPartner: make(map[model.EventID]model.EventID),
		syncWaiters: make(map[model.EventID]int),
		inWork:      make([]bool, n),
	}
	for i := range c.pending {
		c.pending[i] = make(map[model.EventIndex]model.Event)
		c.next[i] = 1
	}
	return c
}

func (c *oracleCollector) SubmitBatch(events []model.Event) (accepted int, err error) {
	var touched []int
	for _, e := range events {
		if err = c.insert(e); err != nil {
			break
		}
		accepted++
		touched = append(touched, int(e.ID.Process))
	}
	if derr := c.drain(touched); derr != nil && err == nil {
		err = derr
	}
	return accepted, err
}

func (c *oracleCollector) insert(e model.Event) error {
	p := int(e.ID.Process)
	if p < 0 || p >= len(c.pending) {
		return fmt.Errorf("process out of range")
	}
	if e.ID.Index < c.next[p] {
		return fmt.Errorf("already delivered")
	}
	if _, dup := c.pending[p][e.ID.Index]; dup {
		return fmt.Errorf("duplicate submission")
	}
	switch e.Kind {
	case model.Unary:
	case model.Send, model.Receive, model.Sync:
		q := int(e.Partner.Process)
		if e.Partner.IsZero() || q < 0 || q >= len(c.pending) {
			return ErrBadPartner
		}
		if e.Partner == e.ID {
			if e.Kind == model.Sync {
				return ErrSelfSync
			}
			return ErrBadPartner
		}
		if e.Partner.Process == e.ID.Process {
			return ErrBadPartner
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	c.pending[p][e.ID.Index] = e
	c.held++
	return nil
}

func (c *oracleCollector) delivered(id model.EventID) bool { return id.Index < c.next[id.Process] }

func (c *oracleCollector) front(p int) (model.Event, bool) {
	e, ok := c.pending[p][c.next[p]]
	return e, ok
}

func (c *oracleCollector) deliver(e model.Event) {
	delete(c.pending[e.ID.Process], e.ID.Index)
	c.held--
	c.next[e.ID.Process]++
}

func (c *oracleCollector) drain(start []int) error {
	var work []int
	push := func(p int) {
		if !c.inWork[p] {
			c.inWork[p] = true
			work = append(work, p)
		}
	}
	for _, p := range start {
		push(p)
	}
	var err error
	head := 0
scan:
	for head < len(work) {
		p := work[head]
		head++
		c.inWork[p] = false
	inner:
		for {
			e, ok := c.front(p)
			if !ok {
				break inner
			}
			if w, waited := c.syncWaiters[e.ID]; waited {
				delete(c.syncWaiters, e.ID)
				push(w)
			}
			switch e.Kind {
			case model.Unary:
				c.deliver(e)
			case model.Send:
				c.sentPartner[e.ID] = e.Partner
				c.deliver(e)
				push(int(e.Partner.Process))
			case model.Receive:
				if !c.delivered(e.Partner) {
					break inner
				}
				if target, ok := c.sentPartner[e.Partner]; !ok || target != e.ID {
					err = ErrReceiveMismatch
					break scan
				}
				delete(c.sentPartner, e.Partner)
				c.deliver(e)
			case model.Sync:
				if c.delivered(e.Partner) {
					err = ErrSyncMismatch
					break scan
				}
				q := int(e.Partner.Process)
				partner, ok := c.front(q)
				if !ok || partner.ID != e.Partner {
					c.syncWaiters[e.Partner] = p
					break inner
				}
				if partner.Kind != model.Sync || partner.Partner != e.ID {
					err = ErrSyncMismatch
					break scan
				}
				c.deliver(e)
				c.deliver(partner)
				delete(c.syncWaiters, partner.ID)
				push(q)
			}
		}
	}
	for ; head < len(work); head++ {
		c.inWork[work[head]] = false
	}
	return err
}

// memJournal records the runs a collector journals.
type memJournal struct{ runs [][]model.Event }

func (j *memJournal) AppendRun(events []model.Event) error {
	j.runs = append(j.runs, slices.Clone(events))
	return nil
}

func (j *memJournal) Stats() string { return "" }

// sameTimestamp reports whether two timestamps are identical down to the
// cluster-epoch identity and every vector element.
func sameTimestamp(a, b hct.Timestamp) bool {
	return a.ID == b.ID && a.Kind == b.Kind &&
		((a.Cluster == nil) == (b.Cluster == nil)) &&
		(a.Cluster == nil || (a.Cluster.ID == b.Cluster.ID &&
			vclock.Clock(a.Cluster.Members).Equal(vclock.Clock(b.Cluster.Members)))) &&
		vclock.Clock(a.Proj).Equal(vclock.Clock(b.Proj)) &&
		a.Full.Equal(b.Full)
}

// adversarialStream turns a valid computation into the stream a set of
// faulty, unsynchronized instrumentation points might send: the records
// shuffled, then mutated four bytes at a time — duplicated or re-submitted,
// their partner claims redirected (stale sync claims, receives naming a send
// that targets someone else), kinds flipped, records invented or dropped.
func adversarialStream(procs int, seed int64, muts []byte) []model.Event {
	tr := mixedTrace(procs, 48, seed)
	r := rand.New(rand.NewSource(seed))
	stream := make([]model.Event, len(tr.Events))
	for to, from := range r.Perm(len(tr.Events)) {
		stream[to] = tr.Events[from]
	}
	anyID := func(a, b byte) model.EventID {
		return model.EventID{Process: model.ProcessID(int(a) % (procs + 1)), Index: model.EventIndex(b % 12)}
	}
	for ; len(muts) >= 4 && len(stream) > 0; muts = muts[4:] {
		op, pos, a, b := muts[0], int(muts[1])%len(stream), muts[2], muts[3]
		switch op % 6 {
		case 0: // the same record again, somewhere else
			stream = slices.Insert(stream, int(a)%(len(stream)+1), stream[pos])
		case 1: // a redirected partner claim
			stream[pos].Partner = anyID(a, b)
		case 2:
			stream[pos].Kind = model.Kind(a % 5)
		case 3: // an invented record
			stream = slices.Insert(stream, pos, model.Event{ID: anyID(a, b), Kind: model.Kind((a >> 4) % 4), Partner: anyID(b, a)})
		case 4:
			other := int(a) % len(stream)
			stream[pos], stream[other] = stream[other], stream[pos]
		case 5: // a record that never arrives
			stream = slices.Delete(stream, pos, pos+1)
		}
	}
	return stream
}

// FuzzJournaledImpliesPlannable feeds adversarial out-of-order streams
// through a pipelined, journaled collector at every pipeline shape and holds
// it to "journaled ⇒ plannable": every run handed to AppendRun is published
// once the ingest barrier returns; a monitor rebuilt by delivering the
// recorded runs, as recovery does, accepts each of them and has byte-identical
// timestamps, Stats and admission frontier; and what the collector accepts and
// holds is what it always did (oracleCollector).
func FuzzJournaledImpliesPlannable(f *testing.F) {
	// The collector_adversarial_test.go shapes: a stale sync claim, a receive
	// racing its send and one naming a send with another target, duplicate and
	// re-submitted records, a self-sync.
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(4), []byte{1, 3, 2, 1, 1, 9, 0, 2})
	f.Add(int64(3), uint8(8), []byte{0, 5, 0, 0, 0, 7, 40, 0})
	f.Add(int64(4), uint8(13), []byte{3, 0, 0x21, 1, 3, 1, 0x32, 1, 2, 4, 3, 0})
	f.Add(int64(5), uint8(26), []byte{5, 2, 0, 0, 4, 1, 30, 0, 1, 6, 1, 1, 3, 2, 0x30, 2})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, muts []byte) {
		shards := []int{1, 2, 4}[shape%3]
		depth := []int{0, 1, 8}[shape/3%3] // plan-queue depth above one lane, 0 = default
		procs := 3 + int(shape/9)%4
		cfg := func() hct.Config {
			return hct.Config{MaxClusterSize: 3, Decider: strategy.NewMergeOnFirst()}
		}
		m, err := NewWithOptions(procs, cfg(), hct.PipelineOptions{Shards: shards, PlanQueue: depth})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		journal := &memJournal{}
		c := NewCollector(m)
		c.journal = journal
		c.pipelined = true
		oracle := newOracleCollector(procs)

		stream := adversarialStream(procs, seed, muts)
		// An admitted event no lane can stamp shows as a hang (in the
		// barrier, or in a SubmitBatch behind a plan queue that no longer
		// drains), which the fuzz engine would sit through silently.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				panic(fmt.Sprintf("shards=%d depth=%d: pipeline stalled on %v", shards, depth, stream))
			}
		}()
		r := rand.New(rand.NewSource(seed))
		for lo := 0; lo < len(stream); {
			hi := min(lo+1+r.Intn(12), len(stream))
			n, err := c.SubmitBatch(stream[lo:hi])
			wantN, wantErr := oracle.SubmitBatch(stream[lo:hi])
			if n != wantN || (err == nil) != (wantErr == nil) {
				t.Fatalf("SubmitBatch(%v) = %d, %v; the collector used to answer %d, %v", stream[lo:hi], n, err, wantN, wantErr)
			}
			if got := c.Held(); got != oracle.held {
				t.Fatalf("after %v: Held() = %d, the collector used to hold %d", stream[lo:hi], got, oracle.held)
			}
			lo = hi
		}
		m.IngestBarrier()

		rebuilt, err := New(procs, cfg())
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range journal.runs {
			if err := rebuilt.DeliverBatch(run); err != nil {
				t.Fatalf("journaled run %d %v is not plannable: %v", i, run, err)
			}
			for _, e := range run {
				got, ok := m.Timestamp(e.ID)
				want, _ := rebuilt.Timestamp(e.ID)
				if !ok || !sameTimestamp(got, want) {
					t.Fatalf("journaled event %v: published %v (%v), rebuilt from the journal %v", e.ID, got, ok, want)
				}
			}
		}
		if got, want := m.Stats(procs), rebuilt.Stats(procs); got != want {
			t.Fatalf("Stats = %+v, rebuilt from the journal %+v", got, want)
		}
		if got, want := m.Pipeline().FrontierNext(), rebuilt.Pipeline().FrontierNext(); !slices.Equal(got, want) {
			t.Fatalf("admission frontier = %v, rebuilt from the journal %v", got, want)
		}
	})
}
