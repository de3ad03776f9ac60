package comms

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameSize bounds one control frame. Control traffic is tiny
// (registrations and heartbeats); a frame this large means a corrupt
// length prefix or a non-protocol peer, and is rejected before any
// allocation.
const MaxFrameSize = 4 << 20

// Conn is a persistent control-plane connection carrying
// length-prefixed gob frames. Each frame is a self-contained gob
// stream (4-byte big-endian length, then the encoded Envelope), so a
// reader can resynchronize per frame and traffic is countable per
// peer. Send is safe for concurrent use; Recv must be called from one
// goroutine at a time.
type Conn struct {
	c net.Conn

	wmu sync.Mutex // serializes writes
	rmu sync.Mutex // serializes reads

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
}

// NewConn wraps an established net.Conn.
func NewConn(c net.Conn) *Conn {
	if c == nil {
		panic("comms: NewConn on nil net.Conn")
	}
	return &Conn{c: c}
}

// Send encodes env as one length-prefixed frame and writes it.
func (c *Conn) Send(env Envelope) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		return fmt.Errorf("comms: encoding %s frame: %w", env.Kind, err)
	}
	if buf.Len() > MaxFrameSize {
		return fmt.Errorf("comms: %s frame of %d bytes exceeds limit %d", env.Kind, buf.Len(), MaxFrameSize)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.c.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.c.Write(buf.Bytes()); err != nil {
		return err
	}
	c.framesSent.Add(1)
	c.bytesSent.Add(int64(len(hdr) + buf.Len()))
	return nil
}

// Recv reads one frame. io.EOF means the peer closed cleanly between
// frames; a net.Error with Timeout() means the read deadline expired.
func (c *Conn) Recv() (Envelope, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.c, hdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return Envelope{}, fmt.Errorf("comms: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.c, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // EOF mid-frame is not a clean close
		}
		return Envelope{}, err
	}
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return Envelope{}, fmt.Errorf("comms: decoding frame: %w", err)
	}
	c.framesRecv.Add(1)
	c.bytesRecv.Add(int64(len(hdr)) + int64(n))
	return env, nil
}

// SetReadDeadline bounds the next Recv.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// Close tears the connection down; blocked Sends/Recvs fail.
func (c *Conn) Close() error { return c.c.Close() }

// Stats snapshots the connection's traffic counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		FramesSent: c.framesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}
