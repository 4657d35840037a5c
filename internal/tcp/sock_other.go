//go:build !linux

package tcp

import (
	"net"
	"net/netip"
)

// ErrClosed is what Accept on a closed listener, and I/O on a closed
// connection, match with errors.Is.
var ErrClosed = net.ErrClosed

// Listen opens a listening socket on addr (see ParseAddr) through net, which
// sets the same options the Linux build does.
func Listen(addr string) (Listener, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", ap.String())
	if err != nil {
		return nil, err
	}
	return listener{ln}, nil
}

type listener struct{ net.Listener }

func (l listener) Accept() (Conn, error) { return l.Listener.Accept() }

func (l listener) Addr() netip.AddrPort { return l.Listener.Addr().(*net.TCPAddr).AddrPort() }

// Dial connects to addr (see ParseAddr) through net.
func Dial(addr string) (Conn, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	return net.Dial("tcp", ap.String())
}
