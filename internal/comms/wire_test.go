package comms

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// pair returns two ends of a live TCP connection, their hellos exchanged,
// and a reader for each.
func pair(t *testing.T) (a, b net.Conn, ar, br *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	if a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if b = <-accepted; b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	ar, br = bufio.NewReader(a), bufio.NewReader(b)
	deadline := time.Now().Add(5 * time.Second)
	shook := make(chan error, 1)
	go func() { shook <- Handshake(b, br, deadline) }()
	if err := Handshake(a, ar, deadline); err != nil {
		t.Fatal(err)
	}
	if err := <-shook; err != nil {
		t.Fatal(err)
	}
	return a, b, ar, br
}

// Two frames written back to back read back whole, in order, with their
// ids, kinds and bodies; an empty body is a frame too.
func TestFrameRoundTrip(t *testing.T) {
	a, _, _, br := pair(t)
	want := []struct {
		id   uint64
		kind byte
		body string
	}{{1, 7, "w1 127.0.0.1:7001 slots=4"}, {1 << 40, 0, ""}, {3, 6, "heartbeat"}}
	var out []byte
	for _, f := range want {
		frame := append(AppendHeader(nil, f.id, f.kind), f.body...)
		if err := EndFrame(frame, "b"); err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	if _, err := a.Write(out); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, FrameHeader)
	for i, f := range want {
		id, kind, body, err := ReadFrame(br, hdr, "a")
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != f.id || kind != f.kind || string(body) != f.body {
			t.Errorf("frame %d read as (%d, %d, %q), want (%d, %d, %q)", i, id, kind, body, f.id, f.kind, f.body)
		}
	}
}

// A header claiming more than MaxFrame is refused with a *WireError
// before its body is allocated or waited for.
func TestRecvRejectsOversizedFrame(t *testing.T) {
	a, _, _, br := pair(t)
	hdr := AppendHeader(nil, 9, 1)
	binary.LittleEndian.PutUint32(hdr, MaxFrame+1)
	if _, err := a.Write(hdr); err != nil {
		t.Fatal(err)
	}
	_, _, body, err := ReadFrame(br, make([]byte, FrameHeader), "a")
	var wire *WireError
	if !errors.As(err, &wire) || body != nil {
		t.Fatalf("an oversized frame read as %d bytes, %v (%T); want a *WireError", len(body), err, err)
	}
}

// A peer that closes between frames reads as io.EOF, the end of the
// conversation; one that closes inside a frame as io.ErrUnexpectedEOF.
func TestRecvCleanCloseIsEOF(t *testing.T) {
	a, _, _, br := pair(t)
	a.Close()
	if _, _, _, err := ReadFrame(br, make([]byte, FrameHeader), "a"); err != io.EOF {
		t.Errorf("err = %v, want io.EOF on a clean close", err)
	}

	a, _, _, br = pair(t)
	frame := append(AppendHeader(nil, 1, 1), "a body cut short"...)
	if err := EndFrame(frame, "b"); err != nil {
		t.Fatal(err)
	}
	a.Write(frame[:len(frame)-4])
	a.Close()
	if _, _, _, err := ReadFrame(br, make([]byte, FrameHeader), "a"); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF on a close inside a frame", err)
	}
}

// A session that dials an address no one listens on yet fails, and
// Redial tries again on its schedule until a listener comes up; then the
// session runs until ctx ends and Redial returns.
func TestDialBackoffWaitsForListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed, connected := make(chan struct{}, 1), make(chan struct{})
	var dials atomic.Int64
	session := func() (bool, error) {
		dials.Add(1)
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			select {
			case failed <- struct{}{}:
			default:
			}
			return false, err
		}
		defer c.Close()
		close(connected)
		<-ctx.Done()
		return true, nil
	}
	returned := make(chan struct{})
	go func() {
		Redial(ctx, session, func(n int) time.Duration { return min(5*time.Millisecond<<n, 20*time.Millisecond) })
		close(returned)
	}()
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("no dial failed while nothing listened")
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	select {
	case <-connected:
	case <-time.After(5 * time.Second):
		t.Fatal("the session never connected after the listener came up")
	}
	if n := dials.Load(); n < 2 {
		t.Errorf("connected on dial %d, want a failed dial first", n)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Redial did not return once ctx ended")
	}
}

// Redial waiting out a long delay after a failed session returns as soon
// as its context ends.
func TestRedialEndsItsWaitWithTheContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sessions atomic.Int64
	returned := make(chan struct{})
	go func() {
		Redial(ctx, func() (bool, error) { sessions.Add(1); return false, errors.New("refused") }, func(int) time.Duration { return time.Hour })
		close(returned)
	}()
	for sessions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Redial kept waiting after its context ended")
	}
	if n := sessions.Load(); n != 1 {
		t.Errorf("%d sessions, want the one before the wait", n)
	}
}
