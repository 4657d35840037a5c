package monitor

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/tcp"
)

// TestServerV2TransportErrorSplit pins how a v2 session ends, over a real
// loopback connection: a framing error is answered with an ERR frame before
// the connection is dropped, while a reset or an expired idle deadline ends
// the session silently. Either way the connection leaves the table.
func TestServerV2TransportErrorSplit(t *testing.T) {
	oversized := func(t *testing.T, conn net.Conn, r *bufio.Reader) {
		var hdr [5]byte
		hdr[0] = frameEvents
		binary.BigEndian.PutUint32(hdr[1:], maxFramePayload+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		typ, _, err := readFrame(r)
		if err != nil || typ != frameErr {
			t.Fatalf("oversized length prefix answered with frame 0x%02x, err %v; want ERR", typ, err)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("after the ERR frame: %v, want the server to close", err)
		}
	}
	reset := func(t *testing.T, conn net.Conn, r *bufio.Reader) {
		// A header announcing 100 bytes, then 10 of them, then a reset.
		if _, err := conn.Write(append([]byte{frameEvents, 0, 0, 0, 100}, make([]byte, 10)...)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let the server block inside the frame
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
	}
	idle := func(t *testing.T, conn net.Conn, r *bufio.Reader) {
		// Half a header, then nothing: the deadline expires inside the frame.
		if _, err := conn.Write([]byte{frameEvents, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("idle session: %v, want the server to close", err)
		}
	}
	for _, tc := range []struct {
		name       string
		drive      func(*testing.T, net.Conn, *bufio.Reader)
		wantErrors int64
	}{
		{"oversized length prefix", oversized, 1},
		{"peer reset mid-frame", reset, 0},
		{"idle timeout", idle, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, 2, ServerConfig{IdleTimeout: 200 * time.Millisecond})
			defer srv.Close()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(protocolV2Magic[:]); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			if typ, _, err := readFrame(r); err != nil || typ != frameHello {
				t.Fatalf("handshake: frame 0x%02x, err %v", typ, err)
			}
			tc.drive(t, conn, r)
			waitFor(t, func() bool {
				srv.mu.Lock()
				defer srv.mu.Unlock()
				return len(srv.conns) == 0
			})
			if got := srv.counters.ProtocolErrors.Value(); got != tc.wantErrors {
				t.Fatalf("%d protocol errors, want %d", got, tc.wantErrors)
			}
		})
	}
}

// TestServerAcceptRetries: a failed accept other than a closed listener (here
// EMFILE, a full file table) does not end protocol serving. The next
// connection is accepted and answered.
func TestServerAcceptRetries(t *testing.T) {
	m, err := New(2, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, ServerConfig{})
	defer srv.Close()
	ln := &emfileListener{conns: make(chan tcp.Conn, 1), closed: make(chan struct{})}
	client, conn := net.Pipe()
	defer client.Close()
	ln.conns <- conn
	srv.mu.Lock()
	srv.listener = ln
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.acceptLoop(ln)

	client.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Write(protocolV2Magic[:]); err != nil {
		t.Fatalf("after one EMFILE the port is not served: %v", err)
	}
	r := bufio.NewReader(client)
	if typ, _, err := readFrame(r); err != nil || typ != frameHello {
		t.Fatalf("handshake: frame 0x%02x, err %v", typ, err)
	}
	if err := writeFrame(client, frameStats, nil); err != nil {
		t.Fatal(err)
	}
	if typ, body, err := readFrame(r); err != nil || typ != frameStatsR || !strings.HasPrefix(string(body), "events=") {
		t.Fatalf("STATS answered 0x%02x %q, %v", typ, body, err)
	}
}

// emfileListener fails its first Accept with EMFILE, then hands over the
// connections sent on conns until Close.
type emfileListener struct {
	conns  chan tcp.Conn
	failed atomic.Bool
	closed chan struct{}
	once   sync.Once
}

func (l *emfileListener) Accept() (tcp.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &os.PathError{Op: "accept", Path: "fake", Err: syscall.EMFILE}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, tcp.ErrClosed
	}
}

func (l *emfileListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *emfileListener) Addr() netip.AddrPort { return netip.AddrPort{} }
