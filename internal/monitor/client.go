package monitor

import (
	"bufio"
	"fmt"

	"repro/internal/model"
	"repro/internal/tcp"
)

// ClientV2 speaks the server's protocol, length-prefixed binary frames:
// batched EVENTS frames for ingestion, batched QUERY frames for precedence
// questions.
type ClientV2 struct {
	conn     tcp.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	numProcs int
	maxBatch int
}

// DialV2 connects to a monitoring server with protocol v2 and performs the
// handshake. It fails when the server does not answer with a HELLO frame; a
// server at its connection limit answers with an ERR frame, which surfaces
// as "monitor: server: server full".
func DialV2(addr string) (*ClientV2, error) {
	conn, err := tcp.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &ClientV2{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64*1024),
		w:    bufio.NewWriterSize(conn, 64*1024),
	}
	if _, err := conn.Write(protocolV2Magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := readFrame(c.r)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("monitor: v2 handshake: %w", err)
	}
	if typ != frameHello {
		conn.Close()
		return nil, errFromFrame(frameHello, typ, payload)
	}
	version, numProcs, maxBatch, err := decodeHelloPayload(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if version != protocolV2Version {
		conn.Close()
		return nil, fmt.Errorf("monitor: v2 handshake: server version %d", version)
	}
	c.numProcs, c.maxBatch = numProcs, maxBatch
	return c, nil
}

// NumProcs returns the process count announced by the server.
func (c *ClientV2) NumProcs() int { return c.numProcs }

// MaxBatch returns the server's per-frame record limit.
func (c *ClientV2) MaxBatch() int { return c.maxBatch }

// exchange writes one frame and reads the next response frame.
func (c *ClientV2) exchange(typ byte, payload []byte) (byte, []byte, error) {
	if err := writeFrame(c.w, typ, payload); err != nil {
		return 0, nil, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, nil, err
	}
	return readFrame(c.r)
}

// errFromFrame converts a response frame into an error when it is not the
// expected type.
func errFromFrame(want, got byte, payload []byte) error {
	if got == frameErr {
		return fmt.Errorf("monitor: server: %s", payload)
	}
	return fmt.Errorf("monitor: server sent frame 0x%02x, want 0x%02x", got, want)
}

// ReportBatch streams a batch of events as one EVENTS frame. Batches larger
// than the server's limit are split transparently.
func (c *ClientV2) ReportBatch(events []model.Event) error {
	for len(events) > 0 {
		n := len(events)
		if c.maxBatch > 0 && n > c.maxBatch {
			n = c.maxBatch
		}
		typ, payload, err := c.exchange(frameEvents, encodeEventsPayload(events[:n]))
		if err != nil {
			return err
		}
		if typ != frameAck {
			return errFromFrame(frameAck, typ, payload)
		}
		if accepted, err := decodeAckPayload(payload); err != nil {
			return err
		} else if accepted != n {
			return fmt.Errorf("monitor: server acknowledged %d of %d events", accepted, n)
		}
		events = events[n:]
	}
	return nil
}

// Report streams one event.
func (c *ClientV2) Report(e model.Event) error {
	batch := [1]model.Event{e}
	return c.ReportBatch(batch[:])
}

// QueryBatch answers a batch of precedence queries in one exchange. The
// returned slice parallels qs; a result with a non-nil Err was rejected by
// the server (e.g. an event not yet delivered).
func (c *ClientV2) QueryBatch(qs []Query) ([]QueryResult, error) {
	return c.queryChunks(frameQuery, encodeQueryPayload, qs)
}

// QueryBatchAt answers a batch of precedence queries against recorded
// history as of the first cutoff events (CutoffLatest selects everything the
// server has recorded), served by the server's replay plane. Batches larger
// than the server's limit are split; every sub-batch carries the same
// cutoff, so the whole call reflects one point in time.
func (c *ClientV2) QueryBatchAt(cutoff uint64, qs []Query) ([]QueryResult, error) {
	return c.queryChunks(frameQueryAt, func(qs []Query) []byte { return encodeQueryAtPayload(cutoff, qs) }, qs)
}

// queryChunks sends qs in frames of typ no larger than the server's batch
// limit, each payload built by encode, and collects the RESULTS.
func (c *ClientV2) queryChunks(typ byte, encode func([]Query) []byte, qs []Query) ([]QueryResult, error) {
	out := make([]QueryResult, 0, len(qs))
	for len(qs) > 0 {
		n := len(qs)
		if c.maxBatch > 0 && n > c.maxBatch {
			n = c.maxBatch
		}
		rtyp, payload, err := c.exchange(typ, encode(qs[:n]))
		if err != nil {
			return nil, err
		}
		if rtyp != frameResults {
			return nil, errFromFrame(frameResults, rtyp, payload)
		}
		codes, err := decodeResultsPayload(payload)
		if err != nil {
			return nil, err
		}
		if len(codes) != n {
			return nil, fmt.Errorf("monitor: server answered %d of %d queries", len(codes), n)
		}
		for _, code := range codes {
			switch code {
			case resultTrue:
				out = append(out, QueryResult{True: true})
			case resultFalse:
				out = append(out, QueryResult{})
			default:
				out = append(out, QueryResult{Err: fmt.Errorf("monitor: server rejected query")})
			}
		}
		qs = qs[n:]
	}
	return out, nil
}

// queryOne asks a single query and surfaces its per-query error.
func (c *ClientV2) queryOne(q Query) (bool, error) {
	res, err := c.QueryBatch([]Query{q})
	if err != nil {
		return false, err
	}
	return res[0].True, res[0].Err
}

// Precedes asks a happened-before query.
func (c *ClientV2) Precedes(e, f model.EventID) (bool, error) {
	return c.queryOne(Query{Op: OpPrecedes, A: e, B: f})
}

// Concurrent asks a concurrency query.
func (c *ClientV2) Concurrent(e, f model.EventID) (bool, error) {
	return c.queryOne(Query{Op: OpConcurrent, A: e, B: f})
}

// Stats fetches the server's statistics body.
func (c *ClientV2) Stats() (string, error) {
	typ, payload, err := c.exchange(frameStats, nil)
	if err != nil {
		return "", err
	}
	if typ != frameStatsR {
		return "", errFromFrame(frameStatsR, typ, payload)
	}
	return string(payload), nil
}

// SelectTenant scopes the session to a tenant namespace (TENANT frame).
func (c *ClientV2) SelectTenant(name string) error {
	typ, payload, err := c.exchange(frameTenant, []byte(name))
	if err != nil {
		return err
	}
	if typ != frameAck {
		return errFromFrame(frameAck, typ, payload)
	}
	if _, err := decodeAckPayload(payload); err != nil {
		return err
	}
	return nil
}

// Close sends QUIT (best-effort) and closes the connection.
func (c *ClientV2) Close() error {
	_, _, _ = c.exchange(frameQuit, nil)
	return c.conn.Close()
}
