package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
)

// sink is a protocol v2 peer that acknowledges every EVENTS frame without
// looking inside it. ClientV2.ReportBatch against it costs what the wire
// costs — encode, two socket crossings, ACK decode — and nothing of the
// daemon, which makes it the bottom rung of the ladder. The frame layout is
// the one documented in internal/monitor/protocol.go.
type sink struct {
	ln     net.Listener
	done   chan struct{}
	bytes  int64 // payload and header bytes read, valid after close
	frames int64
}

const (
	sinkMagicLen   = 7
	sinkFrameHello = 0x01
	sinkFrameEvent = 0x02
	sinkFrameAck   = 0x03
	sinkFrameQuit  = 0x09
	sinkFrameBye   = 0x0a
)

func startSink(procs int) (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s.serve(c, procs)
	}()
	return s, nil
}

func (s *sink) addr() string { return s.ln.Addr().String() }

// close stops the sink and waits for its goroutine.
func (s *sink) close() {
	s.ln.Close()
	<-s.done
}

func (s *sink) serve(c net.Conn, procs int) {
	r := bufio.NewReaderSize(c, 64<<10)
	var magic [sinkMagicLen]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return
	}
	hello := []byte{sinkFrameHello, 0, 0, 0, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hello[6:], uint32(procs))
	binary.BigEndian.PutUint32(hello[10:], 8192)
	if _, err := c.Write(hello); err != nil {
		return
	}
	var hdr [5]byte
	buf := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[1:]))
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		s.bytes += int64(len(hdr) + n)
		s.frames++
		switch hdr[0] {
		case sinkFrameEvent:
			// ACK carries the record count, the first field of the payload.
			ack := []byte{sinkFrameAck, 0, 0, 0, 4, buf[0], buf[1], buf[2], buf[3]}
			if _, err := c.Write(ack); err != nil {
				return
			}
		case sinkFrameQuit:
			c.Write([]byte{sinkFrameBye, 0, 0, 0, 0})
			return
		}
	}
}
