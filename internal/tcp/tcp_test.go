package tcp

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseAddr: numeric IPv4 and bracketed IPv6 hosts, localhost and the
// empty host parse, and listen and take a dial; a host name, a missing port
// and a port past 65535 are refused with the rule named.
func TestParseAddr(t *testing.T) {
	for _, tc := range []struct {
		addr, want string // want "" = refused
	}{
		{"127.0.0.1:0", "127.0.0.1:0"},
		{"[::1]:0", "[::1]:0"},
		{":0", "0.0.0.0:0"},
		{"localhost:0", "127.0.0.1:0"},
		{"127.0.0.1:7777", "127.0.0.1:7777"},
		{"example.com:1", ""},
		{"127.0.0.1", ""},
		{"127.0.0.1:70000", ""},
		{"::1:0", ""},
		{"[127.0.0.1]:0", ""},
		{"[fe80::1%lo]:0", ""},
		{"127.0.0.1:", ""},
	} {
		ap, err := ParseAddr(tc.addr)
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), AddrRule) {
				t.Errorf("ParseAddr(%q) = %v, %v; want a refusal naming the rule", tc.addr, ap, err)
			}
			if _, lerr := Listen(tc.addr); lerr == nil || lerr.Error() != err.Error() {
				t.Errorf("Listen(%q): %v, want ParseAddr's refusal", tc.addr, lerr)
			}
			if _, derr := Dial(tc.addr); derr == nil || derr.Error() != err.Error() {
				t.Errorf("Dial(%q): %v, want ParseAddr's refusal", tc.addr, derr)
			}
			continue
		}
		if err != nil || ap.String() != tc.want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %s", tc.addr, ap, err, tc.want)
			continue
		}
		if ap.Port() != 0 {
			continue
		}
		ln, err := Listen(tc.addr)
		if err != nil {
			t.Errorf("Listen(%q): %v", tc.addr, err)
			continue
		}
		roundTrip(t, ln)
		ln.Close()
	}
}

// roundTrip dials ln's address and carries a byte each way.
func roundTrip(t *testing.T, ln Listener) {
	t.Helper()
	c, s := pair(t, ln)
	defer c.Close()
	defer s.Close()
	for _, dir := range [][2]Conn{{c, s}, {s, c}} {
		if _, err := dir[0].Write([]byte{7}); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := io.ReadFull(dir[1], b); err != nil || b[0] != 7 {
			t.Fatalf("%s: read %v, %v", ln.Addr(), b, err)
		}
	}
}

// pair dials ln and accepts: the client and the server end.
func pair(t *testing.T, ln Listener) (Conn, Conn) {
	t.Helper()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, x := range []Conn{c, s} {
		x.SetReadDeadline(deadline)
		x.SetWriteDeadline(deadline)
	}
	return c, s
}

func loopback(t *testing.T) Listener {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestCloseWrite: after CloseWrite the peer reads EOF, and the other
// direction still carries data.
func TestCloseWrite(t *testing.T) {
	ln := loopback(t)
	for _, side := range []string{"dialed", "accepted"} {
		c, s := pair(t, ln)
		if side == "accepted" {
			c, s = s, c
		}
		if _, err := c.Write([]byte("last")); err != nil {
			t.Fatal(err)
		}
		if err := c.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
			t.Fatalf("%s: CloseWrite: %v", side, err)
		}
		if got, err := io.ReadAll(s); err != nil || string(got) != "last" {
			t.Fatalf("%s: peer read %q, %v; want \"last\" then EOF", side, got, err)
		}
		if _, err := s.Write([]byte("reply")); err != nil {
			t.Fatalf("%s: peer write after CloseWrite: %v", side, err)
		}
		b := make([]byte, 5)
		if _, err := io.ReadFull(c, b); err != nil || string(b) != "reply" {
			t.Fatalf("%s: read %q, %v after CloseWrite; want \"reply\"", side, b, err)
		}
		c.Close()
		s.Close()
	}
}

// TestDeadlines: a read past its deadline fails with an error matching
// os.ErrDeadlineExceeded, and so does a write stuck behind a peer that does
// not read.
func TestDeadlines(t *testing.T) {
	ln := loopback(t)
	c, s := pair(t, ln)
	defer c.Close()
	defer s.Close()
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	chunk := make([]byte, 1<<16)
	var err error
	for err == nil {
		_, err = c.Write(chunk)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestCloseEndsAccept: Close wakes a blocked Accept with ErrClosed, and I/O
// on a closed connection fails the same way.
func TestCloseEndsAccept(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept block; it reports ErrClosed either way
	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake Accept")
	}
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}

	c, s := pair(t, loopback(t))
	defer c.Close()
	s.Close()
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on a closed connection: %v, want ErrClosed", err)
	}
}
