// Package tcp owns poetd's TCP sockets: the protocol listener, the admin
// listener and the clients' dials. On Linux it makes them with raw system
// calls and serves them through *os.File, so the runtime poller does the
// waiting and deadlines work, and nothing the daemon links imports net. net
// is the one standard package with cgo files; linking it pulls in
// runtime/cgo, which makes the binary dynamic and maps libc and ld.so into
// every daemon (DESIGN.md §9, §10). Elsewhere the package wraps net.
//
// Addresses are host:port with a numeric IPv4 host, a bracketed numeric IPv6
// host, "localhost" (127.0.0.1) or an empty host (every interface to listen
// on, the local system to dial). Host names are refused: there is no
// resolver.
package tcp

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Conn is a connected stream socket, as much of one as the daemon's servers
// and clients use. A net.Conn satisfies it. Sockets from Listen and Dial
// also have CloseWrite, which shuts the write side down and leaves the read
// side open.
type Conn interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener is a listening socket. Accept on a closed listener returns an
// error matching ErrClosed.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() netip.AddrPort
}

// Accept returns ln's next connection. A failed accept other than ErrClosed
// (EMFILE, ENFILE, ENOBUFS, ENOMEM: a full file table or short memory clears
// by itself) is retried after a pause that doubles from 5 ms up to a second,
// so a server keeps its port; ErrClosed is returned.
func Accept(ln Listener) (Conn, error) {
	var pause time.Duration
	for {
		c, err := ln.Accept()
		if err == nil || errors.Is(err, ErrClosed) {
			return c, err
		}
		pause = min(max(2*pause, 5*time.Millisecond), time.Second)
		time.Sleep(pause)
	}
}

// AddrRule is the rule ParseAddr holds addresses to, for flag help texts and
// refusals.
const AddrRule = `host:port, where the host is a numeric IPv4 address, a bracketed numeric IPv6 address, "localhost" or empty (all interfaces); host names are refused`

// ParseAddr parses host:port by AddrRule. An empty host parses as 0.0.0.0:
// Listen serves it on every interface, IPv6 included, and Dial reaches the
// local system.
func ParseAddr(s string) (netip.AddrPort, error) {
	refuse := func(why string) (netip.AddrPort, error) {
		return netip.AddrPort{}, fmt.Errorf("tcp: address %q: %s; want %s", s, why, AddrRule)
	}
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return refuse("missing port")
	}
	host, port := s[:i], s[i+1:]
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return refuse("port is not a number from 0 to 65535")
	}
	var ip netip.Addr
	switch {
	case host == "":
		ip = netip.IPv4Unspecified()
	case host == "localhost":
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	case strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]"):
		ip, err = netip.ParseAddr(host[1 : len(host)-1])
		if err != nil || !ip.Is6() || ip.Zone() != "" {
			return refuse("not a numeric IPv6 address without a zone")
		}
	default:
		ip, err = netip.ParseAddr(host)
		if err != nil || !ip.Is4() {
			return refuse("not a numeric IPv4 address")
		}
	}
	return netip.AddrPortFrom(ip, uint16(p)), nil
}
