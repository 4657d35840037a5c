package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// A step is one request of a script, sent as one frame on one of the
// script's connections. At most one of event, query and tenant is meaningful,
// as the verb says.
type step struct {
	conn   int
	verb   verb
	event  model.Event
	query  Query
	tenant string
}

// frameWire is one connection of a script. It renders each reply frame as a
// word: OK for ACK, TRUE, FALSE or a bare ERR for a one-query RESULTS (result
// code 2 carries no message), "ERR <msg>" for an ERR frame, BYE, and the STATS
// body as it is.
type frameWire struct{ c *ClientV2 }

func (w frameWire) do(st step) (string, error) {
	var typ byte
	var payload []byte
	switch st.verb {
	case verbEvents:
		typ, payload = frameEvents, encodeEventsPayload([]model.Event{st.event})
	case verbQuery:
		typ, payload = frameQuery, encodeQueryPayload([]Query{st.query})
	case verbTenant:
		typ, payload = frameTenant, []byte(st.tenant)
	case verbStats:
		typ = frameStats
	case verbQuit:
		typ = frameQuit
	}
	rtyp, rp, err := w.c.exchange(typ, payload)
	if err != nil {
		return "", err
	}
	switch rtyp {
	case frameAck:
		want := 0
		if st.verb == verbEvents {
			want = 1
		}
		if n, err := decodeAckPayload(rp); err != nil || n != want {
			return "", fmt.Errorf("ACK(%d), %v; want ACK(%d)", n, err, want)
		}
		return "OK", nil
	case frameResults:
		codes, err := decodeResultsPayload(rp)
		if err != nil || len(codes) != 1 {
			return "", fmt.Errorf("RESULTS %v, %v; want one code", codes, err)
		}
		return [...]string{resultFalse: "FALSE", resultTrue: "TRUE", resultErr: "ERR"}[codes[0]], nil
	case frameErr:
		return "ERR " + string(rp), nil
	case frameStatsR:
		return string(rp), nil
	case frameBye:
		return "BYE", nil
	}
	return "", fmt.Errorf("unexpected frame 0x%02x", rtyp)
}

// runScript plays script against a fresh server over nconns connections and
// returns the reply to every step. Every connection must end with QUIT in the
// script.
func runScript(t *testing.T, numProcs, nconns int, script []step) []string {
	t.Helper()
	srv, addr := startTenantServer(t, numProcs, ServerConfig{})
	conns := make([]frameWire, nconns)
	for i := range conns {
		c, err := DialV2(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.conn.Close() })
		conns[i] = frameWire{c}
	}
	replies := make([]string, len(script))
	for i, st := range script {
		resp, err := conns[st.conn].do(st)
		if err != nil {
			t.Fatalf("step %d (%+v): %v", i, st, err)
		}
		replies[i] = resp
	}
	// A script that strands events in the collector (an index gap it never
	// fills) makes Close report them; that is the script's business.
	_ = srv.Close()
	return replies
}

// TestProtocolsAgree holds the frame protocol to scripts: the replies a verb
// sequence draws agree with a pinned table — OK for ACK(1) and ACK(0), TRUE
// or FALSE for a result code, ERR (with the message, where the frame carries
// one) for a refusal — and, over the corpus, with an in-order reference
// monitor and with the collector's accounting of what arrived.
func TestProtocolsAgree(t *testing.T) {
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	t.Run("table", func(t *testing.T) {
		send := model.Event{ID: id(0, 2), Kind: model.Send, Partner: id(1, 1)}
		recv := model.Event{ID: id(1, 1), Kind: model.Receive, Partner: id(0, 2)}
		// want is each step's reply; "ERR " asks for an ERR with a message,
		// and a STATS step names fields its body must carry.
		script := []struct {
			step
			want string
		}{
			{step{verb: verbStats}, "events=0 held=0"},
			{step{verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}}, "ERR"}, // unknown events
			{step{verb: verbEvents, event: recv}, "OK"},                                            // held: its send has not arrived
			{step{verb: verbEvents, event: send}, "OK"},                                            // held: 0:1 has not arrived
			{step{verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 2), B: id(1, 1)}}, "ERR"}, // still unknown
			{step{verb: verbStats}, "events=0 held=2"},
			{step{conn: 1, verb: verbEvents, event: model.Event{ID: id(0, 1), Kind: model.Unary}}, "OK"}, // releases all three
			{step{conn: 1, verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}}, "TRUE"},
			{step{conn: 1, verb: verbQuery, query: Query{Op: OpConcurrent, A: id(0, 2), B: id(1, 1)}}, "FALSE"},
			{step{verb: verbEvents, event: send}, "ERR "},                                            // duplicate
			{step{verb: verbEvents, event: model.Event{ID: id(9, 1), Kind: model.Unary}}, "ERR "},    // process out of range
			{step{verb: verbQuery, query: Query{Op: OpConcurrent, A: id(9, 1), B: id(0, 1)}}, "ERR"}, // out of range
			{step{conn: 1, verb: verbTenant, tenant: "no/slashes"}, "ERR "},
			{step{conn: 1, verb: verbStats}, "tenant=default tenants=1"}, // still scoped to default
			{step{conn: 1, verb: verbTenant, tenant: "blue"}, "OK"},
			{step{conn: 1, verb: verbEvents, event: model.Event{ID: id(0, 1), Kind: model.Unary}}, "OK"},    // blue's own 0:1
			{step{conn: 1, verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}}, "ERR"}, // blue has no 1:1
			{step{conn: 1, verb: verbStats}, "events=1 held=0 tenant=blue tenants=2"},
			{step{verb: verbTenant, tenant: DefaultTenant}, "OK"},
			{step{verb: verbStats}, "events=3 held=0 tenant=default"},
			{step{verb: verbQuit}, "BYE"},
			{step{conn: 1, verb: verbQuit}, "BYE"},
		}
		steps := make([]step, len(script))
		for i, s := range script {
			steps[i] = s.step
		}
		for i, got := range runScript(t, 3, 2, steps) {
			want := script[i].want
			var ok bool
			switch {
			case script[i].verb == verbStats:
				ok = true
				for _, f := range strings.Fields(want) {
					ok = ok && slices.Contains(strings.Fields(got), f)
				}
			case want == "ERR ":
				ok = strings.HasPrefix(got, want) && len(got) > len(want)
			default:
				ok = got == want
			}
			if !ok {
				t.Errorf("step %d (%+v) -> %q, want %q", i, script[i].step, got, want)
			}
		}
	})

	// Seeded random scripts over prefixes of the corpus computations: the
	// prefix arrives fully permuted over three connections (so the collector
	// holds most of it at some point), salted with duplicates, out-of-range
	// records, queries on delivered, held and never-sent events, TENANT
	// reselections and STATS probes.
	const prefix, nconns = 240, 3
	for i, spec := range workload.Corpus() {
		if testing.Short() && i%7 != 0 {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			r := rand.New(rand.NewSource(0xA9EE + int64(i)))
			events := tr.Events[:prefix]
			var script []step
			add := func(st step) {
				st.conn = r.Intn(nconns)
				script = append(script, st)
			}
			anyID := func() model.EventID {
				if r.Intn(8) == 0 {
					return id(r.Intn(tr.NumProcs+2), 1+r.Intn(400)) // likely never sent, maybe out of range
				}
				return events[r.Intn(prefix)].ID
			}
			for _, k := range r.Perm(prefix) {
				add(step{verb: verbEvents, event: events[k]})
				switch x := r.Intn(40); {
				case x < 6:
					add(step{verb: verbQuery, query: Query{Op: QueryOp(r.Intn(2)), A: anyID(), B: anyID()}})
				case x < 8:
					add(step{verb: verbEvents, event: events[r.Intn(prefix)]}) // duplicate, or an early arrival
				case x == 8:
					add(step{verb: verbEvents, event: model.Event{ID: id(tr.NumProcs+r.Intn(3), 1), Kind: model.Unary}})
				case x == 9:
					add(step{verb: verbStats})
				case x == 10:
					add(step{verb: verbTenant, tenant: [...]string{DefaultTenant, "no/slashes"}[r.Intn(2)]})
				}
			}
			for c := 0; c < nconns; c++ {
				script = append(script, step{conn: c, verb: verbStats}, step{conn: c, verb: verbQuit})
			}
			replies := runScript(t, tr.NumProcs, nconns, script)
			// The server delivers a causally closed set, so an answered query
			// is the whole computation's answer.
			ref, err := New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.DeliverAll(tr); err != nil {
				t.Fatal(err)
			}
			for k, st := range script {
				if st.verb != verbQuery || replies[k] == "ERR" {
					continue
				}
				want, err := answerLocal(ref, st.query)
				if err != nil || replies[k] != strings.ToUpper(fmt.Sprint(want)) {
					t.Fatalf("step %d (%+v) -> %s; reference %v, %v", k, st, replies[k], want, err)
				}
			}
			// Every distinct record of the prefix arrived: each is delivered or
			// (a sync half whose peer lies past the prefix) held, none twice.
			final := replies[len(replies)-2]
			if got := statsInt(t, final, "events") + statsInt(t, final, "held"); got != prefix {
				t.Errorf("events+held = %d after a %d-event prefix: %s", got, prefix, final)
			}
		})
	}
}
