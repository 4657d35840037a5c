package tcp

import (
	"fmt"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
)

// ErrClosed is what Accept on a closed listener, and I/O on a closed
// connection, match with errors.Is.
var ErrClosed = os.ErrClosed

// Keep-alive as net sets it by default on every connection it accepts or
// dials: probe after 15 s idle, every 15 s, give up after 9.
const (
	keepAliveIdle     = 15
	keepAliveInterval = 15
	keepAliveCount    = 9
)

// Listen opens a listening socket on addr (see ParseAddr). An unspecified
// host listens on IPv6 and IPv4 alike, as net does, or on IPv4 alone where
// the system has no IPv6.
func Listen(addr string) (Listener, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	sa := sockaddr(ap)
	if ap.Addr().IsUnspecified() {
		sa = &syscall.SockaddrInet6{Port: int(ap.Port())}
	}
	fd, err := socket(sa)
	if err == syscall.EAFNOSUPPORT && ap.Addr().IsUnspecified() {
		fd, err = socket(&syscall.SockaddrInet4{Port: int(ap.Port())})
	}
	if err != nil {
		return nil, opError("listen", addr, err)
	}
	if err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err == nil {
		if err = syscall.Bind(fd, sa); err == nil {
			// The kernel caps the backlog at net.core.somaxconn.
			err = syscall.Listen(fd, 0xffff)
		}
	}
	if err == nil {
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, opError("listen", addr, err)
	}
	bound := addrPort(sa)
	l := &listener{f: os.NewFile(uintptr(fd), "tcp:"+bound.String()), addr: bound}
	l.rc, err = l.f.SyscallConn()
	if err != nil {
		l.f.Close()
		return nil, opError("listen", addr, err)
	}
	return l, nil
}

// socket makes a non-blocking, close-on-exec stream socket for sa's family.
// An IPv6 socket takes IPv4 too, as net's do.
func socket(sa syscall.Sockaddr) (int, error) {
	family := syscall.AF_INET
	if _, ok := sa.(*syscall.SockaddrInet6); ok {
		family = syscall.AF_INET6
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err != nil || family == syscall.AF_INET {
		return fd, err
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// sockaddr is ap as the kernel takes it.
func sockaddr(ap netip.AddrPort) syscall.Sockaddr {
	if ap.Addr().Is4() {
		return &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	return &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()}
}

// addrPort is the inverse of sockaddr.
func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
	}
	return netip.AddrPort{}
}

type listener struct {
	f      *os.File
	rc     syscall.RawConn // f's, for Accept4
	addr   netip.AddrPort
	closed atomic.Bool // Close ran: a failed accept reports ErrClosed
}

// Accept waits for a connection in the runtime poller and returns it as a
// pollable *os.File with TCP_NODELAY and keep-alive set.
func (l *listener) Accept() (Conn, error) {
	var fd int
	var sa syscall.Sockaddr
	var aerr error
	err := l.rc.Read(func(s uintptr) bool {
		for {
			fd, sa, aerr = syscall.Accept4(int(s), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			// A connection reset while it sat in the queue is net's cue to
			// try again too.
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	})
	if err == nil {
		err = aerr
	}
	if err != nil {
		if l.closed.Load() {
			err = ErrClosed
		}
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: err}
	}
	connOptions(fd)
	return conn{os.NewFile(uintptr(fd), "tcp:"+addrPort(sa).String())}, nil
}

func (l *listener) Close() error {
	l.closed.Store(true)
	return l.f.Close()
}

func (l *listener) Addr() netip.AddrPort { return l.addr }

// Dial connects to addr (see ParseAddr): a non-blocking connect, then a wait
// in the runtime poller until the socket is writable and SO_ERROR says how
// the connect ended.
func Dial(addr string) (Conn, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	sa := sockaddr(ap)
	fd, err := socket(sa)
	if err != nil {
		return nil, opError("dial", addr, err)
	}
	connOptions(fd)
	err = syscall.Connect(fd, sa)
	if err != nil && err != syscall.EINPROGRESS && err != syscall.EINTR {
		syscall.Close(fd)
		return nil, opError("dial", addr, err)
	}
	c := conn{os.NewFile(uintptr(fd), "tcp:"+ap.String())}
	if err != nil {
		if err = c.awaitConnect(); err != nil {
			c.Close()
			return nil, opError("dial", addr, err)
		}
	}
	return c, nil
}

// connOptions sets what net sets on every TCP connection: no Nagle delay,
// and keep-alive. Like net, it ignores a failure, which leaves the system's
// default.
func connOptions(fd int) {
	for _, o := range [...]struct{ level, name, value int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveIdle},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveInterval},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, keepAliveCount},
	} {
		_ = syscall.SetsockoptInt(fd, o.level, o.name, o.value)
	}
}

// conn is a connected socket: an *os.File over a non-blocking descriptor,
// so reads and writes wait in the runtime poller and take deadlines.
type conn struct{ *os.File }

// CloseWrite shuts down the write side: the peer reads EOF, and data can
// still arrive.
func (c conn) CloseWrite() error {
	return c.control(func(fd int) error { return syscall.Shutdown(fd, syscall.SHUT_WR) })
}

// awaitConnect waits until a connect in progress ends and returns how.
func (c conn) awaitConnect() error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var cerr error
	err = rc.Write(func(fd uintptr) bool {
		n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		switch e := syscall.Errno(n); {
		case err != nil:
			cerr = err
		case e == 0:
			// Connected, or not done yet: only the peer's name tells.
			_, err := syscall.Getpeername(int(fd))
			return err == nil
		case e == syscall.EINPROGRESS || e == syscall.EALREADY || e == syscall.EINTR:
			return false
		default:
			cerr = e
		}
		return true
	})
	if err != nil {
		return err
	}
	return cerr
}

// control runs f on c's descriptor.
func (c conn) control(f func(fd int) error) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = f(int(fd)) }); err != nil {
		return err
	}
	return ferr
}

func opError(op, addr string, err error) error {
	return fmt.Errorf("tcp: %s %s: %w", op, addr, err)
}
