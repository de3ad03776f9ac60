package comms

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// The task wire's framing (DESIGN.md, "Task wire"); internal/remote's
// call layer and codecs ride it.
const (
	// Hello opens a connection each way: a magic, the protocol version
	// (byte 7), a newline. No gob stream starts with its first byte, and
	// its newline ends an HTTP request line, so a net/rpc or HTTP peer
	// fails at once instead of waiting for more.
	Hello = "\xf1s3task\x02\n"
	// FrameHeader is a frame's header length: the body's length (uint32)
	// and a call id (uint64), both little-endian, and a kind byte (a
	// request's method, a reply's status). MaxFrame bounds the body.
	FrameHeader = 13
	MaxFrame    = 1 << 30
)

// WireError is a connection that broke the protocol: a peer that sent no
// hello or another one — a net/rpc or HTTP server, or a peer of another
// version — or a frame over MaxFrame.
type WireError struct {
	Peer   string
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("remote: task connection with %s: %s", e.Peer, e.Reason)
}

// Handshake sends the hello and reads the peer's through r, both by
// deadline.
func Handshake(conn net.Conn, r io.Reader, deadline time.Time) error {
	conn.SetDeadline(deadline)
	peer := conn.RemoteAddr().String()
	if _, err := io.WriteString(conn, Hello); err != nil {
		return err
	}
	var got [len(Hello)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("%w: %w", &WireError{peer, "no hello: not a task server or client"}, err)
	}
	if string(got[:]) != Hello {
		if string(got[:7]) == Hello[:7] {
			return &WireError{peer, fmt.Sprintf("protocol version %d, this is %d", got[7], Hello[7])}
		}
		return &WireError{peer, fmt.Sprintf("hello %q: not a task server or client", got[:])}
	}
	return conn.SetDeadline(time.Time{})
}

// AppendHeader starts a frame; EndFrame fills in its length once the
// body is appended, and refuses one over MaxFrame.
func AppendHeader(b []byte, id uint64, kind byte) []byte {
	return append(binary.LittleEndian.AppendUint64(append(b, 0, 0, 0, 0), id), kind)
}

func EndFrame(frame []byte, peer string) error {
	n := len(frame) - FrameHeader
	if n > MaxFrame {
		return &WireError{peer, fmt.Sprintf("a %d-byte frame, over the %d-byte bound", n, MaxFrame)}
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// ReadFrame reads one frame into hdr and a body of its own, refusing a
// length over MaxFrame before it allocates. A peer that closes between
// frames reads as io.EOF, one that closes inside a frame as
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, hdr []byte, peer string) (id uint64, kind byte, body []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:FrameHeader]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, 0, nil, &WireError{peer, fmt.Sprintf("a %d-byte frame, over the %d-byte bound", n, MaxFrame)}
	}
	body = make([]byte, n)
	if _, err = io.ReadFull(r, body); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], body, err
}

// Redial runs session until it returns nil or ctx ends, waiting
// delay(n) after its n-th failure in a row (0-based); a session that
// reports it got through starts the count again.
func Redial(ctx context.Context, session func() (through bool, err error), delay func(n int) time.Duration) {
	for failures := 0; ; failures++ {
		through, err := session()
		if err == nil {
			return
		}
		if through {
			failures = 0
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay(failures)):
		}
	}
}
