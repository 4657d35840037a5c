package tcp

import (
	"syscall"
	"testing"
	"time"
)

// sockopt reads an integer socket option off a listener or a connection.
func sockopt(t *testing.T, x any, level, name int) int {
	t.Helper()
	var c conn
	switch x := x.(type) {
	case *listener:
		c = conn{x.f}
	case conn:
		c = x
	default:
		t.Fatalf("%T is not a socket of this package", x)
	}
	var v int
	if err := c.control(func(fd int) (err error) {
		v, err = syscall.GetsockoptInt(fd, level, name)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSocketOptions reads back what net would have set: TCP_NODELAY (Nagle
// would hold back small replies such as a 32-event frame's ACK) and
// keep-alive at net's defaults on both ends, SO_REUSEADDR on the listener.
func TestSocketOptions(t *testing.T) {
	ln := loopback(t)
	if v := sockopt(t, ln, syscall.SOL_SOCKET, syscall.SO_REUSEADDR); v != 1 {
		t.Errorf("listener SO_REUSEADDR = %d, want 1", v)
	}
	c, s := pair(t, ln)
	defer c.Close()
	defer s.Close()
	for _, end := range []struct {
		name string
		c    Conn
	}{{"dialed", c}, {"accepted", s}} {
		for _, o := range []struct {
			name       string
			level, opt int
			want       int
		}{
			{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
			{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
			{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
			{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
			{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
		} {
			if v := sockopt(t, end.c, o.level, o.opt); v != o.want {
				t.Errorf("%s connection: %s = %d, want %d", end.name, o.name, v, o.want)
			}
		}
	}
}

// TestRelistenOverTimeWait: a listener closed after its side closed a
// connection first leaves that connection in TIME_WAIT on the port; a new
// Listen on the port must still bind, as a restarted daemon does.
func TestRelistenOverTimeWait(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	c, s := pair(t, ln)
	s.Close() // the server's end closes first and goes to TIME_WAIT
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("client read %d, %v; want EOF", n, err)
	}
	c.Close()
	ln.Close()
	again, err := Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s) over a TIME_WAIT connection: %v", addr, err)
	}
	again.Close()
}
