package monitor

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/strategy"
)

// FuzzFrameRoundTrip asserts the v2 payload decoders never panic and are
// strictly canonical: every accepted payload re-encodes to identical bytes.
// It also holds the reuse contract the server's buffers rely on: decoding into
// a dirty buffer an earlier batch left behind gives what decoding into nil
// gives, a refusal returns nothing, and whatever a payload — refused or not —
// left in a buffer is invisible to the next decode into it.
func FuzzFrameRoundTrip(f *testing.F) {
	events := []model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary},
		{ID: model.EventID{Process: 0, Index: 2}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}},
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 2}},
		{ID: model.EventID{Process: 1, Index: 2}, Kind: model.Sync, Partner: model.EventID{Process: 2, Index: 1}},
	}
	qs := []Query{
		{Op: OpPrecedes, A: events[0].ID, B: events[2].ID},
		{Op: OpConcurrent, A: events[1].ID, B: events[3].ID},
	}
	eventsPayload, queryPayload := encodeEventsPayload(events), encodeQueryPayload(qs)
	f.Add(byte(0), eventsPayload)
	f.Add(byte(1), queryPayload)
	f.Add(byte(2), encodeResultsPayload(nil, []QueryResult{{True: true}, {}, {Err: ErrClosed}}))
	f.Add(byte(3), encodeQueryAtPayload(7, qs))
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{0, 0, 0, 0})
	f.Add(byte(0), eventsPayload[:len(eventsPayload)-3]) // refused after three records were written
	// dirtyEvents and dirtyQueries return buffers an earlier batch left three
	// records in, with room for more.
	junkEvent := model.Event{ID: model.EventID{Process: 9, Index: 9}, Kind: model.Sync, Partner: model.EventID{Process: 8, Index: 8}}
	junkQuery := Query{Op: OpConcurrent, A: junkEvent.ID, B: junkEvent.Partner}
	dirtyEvents := func() []model.Event { return append(make([]model.Event, 0, 8), junkEvent, junkEvent, junkEvent) }
	dirtyQueries := func() []Query { return append(make([]Query, 0, 8), junkQuery, junkQuery, junkQuery) }
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		switch mode % 4 {
		case 0:
			got, err := decodeEventsPayload(nil, data, 0)
			reused, rerr := decodeEventsPayload(dirtyEvents(), data, 0)
			if (err == nil) != (rerr == nil) || !slices.Equal(reused, got) || (rerr != nil && len(reused) != 0) {
				t.Fatalf("EVENTS into a dirty buffer: %v, %v; into nil: %v, %v", reused, rerr, got, err)
			}
			if next, _ := decodeEventsPayload(reused, eventsPayload, 0); !slices.Equal(next, events) {
				t.Fatalf("EVENTS after %x: the next decode into its buffer read %v", data, next)
			}
			if err != nil {
				return
			}
			if re := encodeEventsPayload(got); !bytes.Equal(re, data) {
				t.Fatalf("EVENTS round-trip mismatch:\n in  %x\n out %x", data, re)
			}
		case 1, 3:
			var cutoff uint64
			decode := func(dst []Query, p []byte) ([]Query, error) { return decodeQueryPayload(dst, p, 0) }
			if mode%4 == 3 {
				decode = func(dst []Query, p []byte) (got []Query, err error) {
					cutoff, got, err = decodeQueryAtPayload(dst, p, 0)
					return got, err
				}
			}
			got, err := decode(nil, data)
			reused, rerr := decode(dirtyQueries(), data)
			if (err == nil) != (rerr == nil) || !slices.Equal(reused, got) || (rerr != nil && len(reused) != 0) {
				t.Fatalf("QUERY into a dirty buffer: %v, %v; into nil: %v, %v", reused, rerr, got, err)
			}
			if next, _ := decodeQueryPayload(reused, queryPayload, 0); !slices.Equal(next, qs) {
				t.Fatalf("QUERY after %x: the next decode into its buffer read %v", data, next)
			}
			if err != nil {
				return
			}
			re := encodeQueryPayload(got)
			if mode%4 == 3 {
				re = encodeQueryAtPayload(cutoff, got)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("QUERY round-trip mismatch:\n in  %x\n out %x", data, re)
			}
		case 2:
			codes, err := decodeResultsPayload(data)
			if err != nil {
				return
			}
			res := make([]QueryResult, len(codes))
			for i, code := range codes {
				switch code {
				case resultTrue:
					res[i].True = true
				case resultErr:
					res[i].Err = ErrClosed
				}
			}
			if re := encodeResultsPayload(nil, res); !bytes.Equal(re, data) {
				t.Fatalf("RESULTS round-trip mismatch:\n in  %x\n out %x", data, re)
			}
			if re := encodeResultsPayload(bytes.Repeat([]byte{0xEE}, 9)[:0], res); !bytes.Equal(re, data) {
				t.Fatalf("RESULTS into a dirty buffer:\n in  %x\n out %x", data, re)
			}
		}
	})
}

// fuzzServer builds a small server and serves one in-memory connection,
// returning the client half. The caller must close the client side before
// closing the server so the serving goroutine unblocks.
func fuzzServer(t *testing.T) (*Server, net.Conn) {
	t.Helper()
	m, err := New(3, hct.Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	s := serveDefault(t, TenantResources{Monitor: m}, ServerConfig{FixedVector: 8, MaxBatch: 64})
	client, server := net.Pipe()
	s.wg.Add(1)
	go s.serveConn(server)
	return s, client
}

// FuzzServerProtocol drives a live server connection with one fuzzed frame:
// no panics, every frame is answered in order — a rejected one with an ERR
// frame rather than a dropped connection — and the connection keeps serving
// afterwards (witnessed by a STATS exchange). The store holds nothing the
// frame did not carry: a frame other than a well-formed EVENTS batch leaves
// events=0 held=0, and an accepted batch leaves at most its records (a
// collector refusal part-way keeps the prefix it applied, hence at most).
func FuzzServerProtocol(f *testing.F) {
	unary := model.Event{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Unary}
	f.Add(frameEvents, encodeEventsPayload([]model.Event{
		{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}},
		{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
	}))
	f.Add(frameEvents, encodeEventsPayload([]model.Event{unary, unary})) // the second is a duplicate
	f.Add(frameEvents, []byte{0, 0, 0, 1, 0, 0x80, 0, 0, 0, 0, 0, 0, 1}) // process 2^31
	f.Add(frameTenant, []byte("blue"))                                   // serveDefault's factory refuses it
	f.Add(frameEvents, encodeEventsPayload([]model.Event{unary}))
	f.Add(frameQuery, encodeQueryPayload([]Query{{Op: OpPrecedes, A: model.EventID{Process: 0, Index: 1}, B: model.EventID{Process: 1, Index: 1}}}))
	f.Add(frameEvents, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(byte(0x7f), []byte("junk"))
	f.Add(frameQuit, []byte{})
	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		s, client := fuzzServer(t)
		defer func() {
			client.Close()
			_ = s.Close() // stranded-event errors are expected with fuzzed input
		}()
		client.SetDeadline(time.Now().Add(10 * time.Second))

		// The STATS probe goes out once the fuzzed frame is answered, so it
		// sees whatever that frame stored.
		answered := make(chan struct{})
		go func() {
			client.Write(protocolMagic[:])
			writeFrame(client, typ, data)
			<-answered
			writeFrame(client, frameStats, nil)
			writeFrame(client, frameQuit, nil)
		}()
		r := bufio.NewReader(client)
		rtyp, _, err := readFrame(r)
		if err != nil || rtyp != frameHello {
			close(answered)
			t.Fatalf("handshake reply: frame 0x%02x, err %v", rtyp, err)
		}
		var replies []byte
		var stats string
		for {
			rtyp, payload, err := readFrame(r)
			if len(replies) == 0 {
				close(answered) // the fuzzed frame is answered, or never will be
			}
			if err != nil {
				break
			}
			replies = append(replies, rtyp)
			if rtyp == frameStatsR {
				stats = string(payload)
			}
			if rtyp == frameBye {
				break
			}
		}
		if typ == frameQuit {
			// The fuzzed frame itself ended the session.
			if len(replies) == 0 || replies[len(replies)-1] != frameBye {
				t.Fatalf("QUIT not answered with BYE: % x", replies)
			}
			return
		}
		// Expect: reply to the fuzzed frame, STATS reply, BYE.
		if len(replies) != 3 || replies[1] != frameStatsR || replies[2] != frameBye {
			t.Fatalf("reply sequence % x, want [reply STATSR BYE]", replies)
		}
		switch replies[0] {
		case frameAck, frameResults, frameErr, frameStatsR:
		default:
			t.Fatalf("fuzzed frame 0x%02x answered with unexpected frame 0x%02x", typ, replies[0])
		}
		stored := statsInt(t, stats, "events") + statsInt(t, stats, "held")
		carried := 0
		if typ == frameEvents {
			if batch, err := decodeEventsPayload(nil, data, s.cfg.MaxBatch); err == nil {
				carried = len(batch)
			}
		}
		if stored > carried {
			t.Fatalf("frame 0x%02x carrying %d events left events+held=%d: %s", typ, carried, stored, stats)
		}
	})
}
