package monitor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A step is one request of a protocol-neutral script, sent on one of the
// script's connections. At most one of event, query and tenant is meaningful,
// as the verb says.
type step struct {
	conn   int
	verb   verb
	event  model.Event
	query  Query
	tenant string
}

// wire is one connection of one protocol, answering in the text protocol's
// reply vocabulary: OK, TRUE, FALSE, BYE, "ERR <msg>" and the STATS body.
// Query refusals are a bare ERR on both (the frame protocol's result code 2
// carries no message).
type wire interface {
	do(st step) (string, error)
}

type textWire struct{ c *Client }

func (w textWire) do(st step) (string, error) {
	var line string
	switch st.verb {
	case verbEvents:
		rec, err := trace.AppendRecord([]byte("EVENT "), st.event)
		if err != nil {
			return "", err
		}
		line = string(rec)
	case verbQuery:
		line = fmt.Sprintf("PRECEDES %d:%d %d:%d", st.query.A.Process, st.query.A.Index, st.query.B.Process, st.query.B.Index)
		if st.query.Op == OpConcurrent {
			line = "CONCURRENT" + strings.TrimPrefix(line, "PRECEDES")
		}
	case verbTenant:
		line = "TENANT " + st.tenant
	case verbStats:
		line = "STATS"
	case verbQuit:
		line = "QUIT"
	}
	resp, err := w.c.roundTrip(line)
	if st.verb == verbQuery && strings.HasPrefix(resp, "ERR") {
		resp = "ERR"
	}
	return strings.TrimPrefix(resp, "STATS "), err
}

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

// comparableStats drops the fields of a STATS body that legitimately differ
// between the protocols (their own unit counters) or between two runs (the
// wall-clock rates).
func comparableStats(body string) string {
	var keep []string
	for _, f := range strings.Fields(body) {
		k, _, _ := strings.Cut(f, "=")
		switch k {
		case "lines", "frames", "events_per_sec", "queries_per_sec":
		default:
			keep = append(keep, f)
		}
	}
	return strings.Join(keep, " ")
}

// runScript plays script against a fresh server over nconns connections of
// one protocol and returns the reply to every step.
func runScript(t *testing.T, numProcs, nconns int, script []step, dial func(addr string) wire) []string {
	t.Helper()
	srv, addr := startTenantServer(t, numProcs, ServerConfig{})
	conns := make([]wire, nconns)
	for i := range conns {
		conns[i] = dial(addr)
	}
	// A dial returns when the kernel has the connection, which is before the
	// accept loop counts it; STATS reports that count and the codecs must agree
	// on it, so no step runs until every connection is in it.
	waitFor(t, func() bool { return srv.counters.ConnsAccepted.Value() == int64(nconns) })
	replies := make([]string, len(script))
	for i, st := range script {
		resp, err := conns[st.conn].do(st)
		if err != nil {
			t.Fatalf("step %d (%+v): %v", i, st, err)
		}
		if st.verb == verbStats {
			resp = comparableStats(resp)
		}
		replies[i] = resp
	}
	// A script that strands events in the collector (an index gap it never
	// fills) makes Close report them; that is the script's business.
	_ = srv.Close()
	return replies
}

// requireAgreement plays the script over both codecs and holds them to each
// other reply for reply. Every connection must end with QUIT in the script.
func requireAgreement(t *testing.T, numProcs, nconns int, script []step) []string {
	t.Helper()
	text := runScript(t, numProcs, nconns, script, func(addr string) wire {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.conn.Close() })
		return textWire{c}
	})
	frames := runScript(t, numProcs, nconns, script, func(addr string) wire {
		c, err := DialV2(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.conn.Close() })
		return frameWire{c}
	})
	for i := range script {
		if text[i] != frames[i] {
			t.Fatalf("step %d (%+v):\n text:   %s\n frames: %s", i, script[i], text[i], frames[i])
		}
	}
	return text
}

// TestProtocolsAgree is the differential over the two codecs: the same verb
// sequence as text lines against one fresh server and as frames against
// another must draw the same replies — OK for ACK(1), TRUE/FALSE for result
// codes, ERR (with the same message, where the frame carries one) for ERR —
// and leave identical STATS bodies, because both are translations around one
// executor.
func TestProtocolsAgree(t *testing.T) {
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	t.Run("table", func(t *testing.T) {
		send := model.Event{ID: id(0, 2), Kind: model.Send, Partner: id(1, 1)}
		recv := model.Event{ID: id(1, 1), Kind: model.Receive, Partner: id(0, 2)}
		script := []step{
			{verb: verbStats},
			{verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}}, // unknown events
			{verb: verbEvents, event: recv},                                           // held: its send has not arrived
			{verb: verbEvents, event: send},                                           // held: 0:1 has not arrived
			{verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 2), B: id(1, 1)}}, // still unknown
			{verb: verbStats},
			{conn: 1, verb: verbEvents, event: model.Event{ID: id(0, 1), Kind: model.Unary}}, // releases all three
			{conn: 1, verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}},
			{conn: 1, verb: verbQuery, query: Query{Op: OpConcurrent, A: id(0, 2), B: id(1, 1)}},
			{verb: verbEvents, event: send},                                             // duplicate
			{verb: verbEvents, event: model.Event{ID: id(9, 1), Kind: model.Unary}},     // process out of range
			{verb: verbQuery, query: Query{Op: OpConcurrent, A: id(9, 1), B: id(0, 1)}}, // out of range
			{conn: 1, verb: verbTenant, tenant: "no/slashes"},
			{conn: 1, verb: verbStats}, // still scoped to default
			{conn: 1, verb: verbTenant, tenant: "blue"},
			{conn: 1, verb: verbEvents, event: model.Event{ID: id(0, 1), Kind: model.Unary}},   // blue's own 0:1
			{conn: 1, verb: verbQuery, query: Query{Op: OpPrecedes, A: id(0, 1), B: id(1, 1)}}, // blue has no 1:1
			{conn: 1, verb: verbStats},
			{verb: verbTenant, tenant: DefaultTenant},
			{verb: verbStats},
			{verb: verbQuit},
			{conn: 1, verb: verbQuit},
		}
		replies := requireAgreement(t, 3, 2, script)
		// The differential proves agreement; pin a few replies so it cannot
		// pass by both sides being wrong in the same way.
		for i, want := range map[int]string{1: "ERR", 2: "OK", 4: "ERR", 7: "TRUE", 8: "FALSE", 14: "OK", 16: "ERR", 20: "BYE"} {
			if replies[i] != want {
				t.Errorf("step %d (%+v) -> %q, want %q", i, script[i], replies[i], want)
			}
		}
		for _, i := range []int{9, 10, 12} {
			if !strings.HasPrefix(replies[i], "ERR ") {
				t.Errorf("step %d (%+v) -> %q, want an ERR with a message", i, script[i], replies[i])
			}
		}
		if !strings.Contains(replies[5], " held=2 ") || !strings.Contains(replies[19], "events=3 ") || !strings.Contains(replies[17], "tenant=blue tenants=2") {
			t.Errorf("STATS bodies:\n %s\n %s\n %s", replies[5], replies[17], replies[19])
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
			replies := requireAgreement(t, tr.NumProcs, nconns, script)
			// Every distinct record of the prefix arrived: each is delivered or
			// (a sync half whose peer lies past the prefix) held, none twice.
			final := replies[len(replies)-2]
			if got := statsInt(t, final, "events") + statsInt(t, final, "held"); got != prefix {
				t.Errorf("events+held = %d after a %d-event prefix: %s", got, prefix, final)
			}
		})
	}
}
