package comms

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// pair returns two ends of a live TCP connection.
func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-ch
	if accepted.err != nil {
		t.Fatal(accepted.err)
	}
	a, b := NewConn(dialed), NewConn(accepted.c)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pair(t)
	want := Envelope{Kind: FrameRegister, Register: &RegisterFrame{
		ID:       "w1",
		TaskAddr: "127.0.0.1:7001",
		Blocks:   map[string]int{"corpus": 24},
		Capabilities: Capabilities{
			CacheBytes: 1 << 20,
		},
	}}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	hb := Envelope{Kind: FrameHeartbeat, Heartbeat: &HeartbeatFrame{Seq: 3, Stats: WireStats{MapTasks: 7, FailedReads: 1}}}
	if err := a.Send(hb); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != FrameRegister || got.Register == nil {
		t.Fatalf("got %+v, want register frame", got)
	}
	if got.Register.ID != "w1" || got.Register.Blocks["corpus"] != 24 || got.Register.Capabilities.CacheBytes != 1<<20 {
		t.Errorf("register frame corrupted: %+v", got.Register)
	}
	got2, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Kind != FrameHeartbeat || got2.Heartbeat.Seq != 3 || got2.Heartbeat.Stats.MapTasks != 7 {
		t.Errorf("heartbeat frame corrupted: %+v", got2.Heartbeat)
	}
}

func TestConnStatsCountBothDirections(t *testing.T) {
	a, b := pair(t)
	if err := a.Send(Envelope{Kind: FrameAck, Ack: &AckFrame{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Envelope{Kind: FrameAck, Ack: &AckFrame{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Stats(), b.Stats()
	if as.FramesSent != 1 || as.FramesRecv != 1 || bs.FramesSent != 1 || bs.FramesRecv != 1 {
		t.Errorf("frame counts: a=%+v b=%+v", as, bs)
	}
	if as.BytesSent != bs.BytesRecv || as.BytesRecv != bs.BytesSent {
		t.Errorf("byte ledgers disagree: a=%+v b=%+v", as, bs)
	}
	if as.BytesSent <= 4 {
		t.Errorf("sent bytes = %d, want > header size", as.BytesSent)
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	a, b := pair(t)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	// Write the bogus length header directly on the underlying conn.
	if _, err := a.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestRecvCleanCloseIsEOF(t *testing.T) {
	a, b := pair(t)
	a.Close()
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF on clean close", err)
	}
}

func TestRecvDeadline(t *testing.T) {
	_, b := pair(t)
	if err := b.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := b.Recv()
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Errorf("err = %v, want timeout net.Error", err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Zero value falls back to defaults instead of busy-looping.
	var z Backoff
	if z.Delay(0) <= 0 {
		t.Error("zero-value backoff must not return non-positive delay")
	}
}

func TestDialBackoffWaitsForListener(t *testing.T) {
	// Reserve an address, close it, dial in the background, then bring
	// the listener up: the dialer must connect on a retry.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := make(chan struct{})
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := DialBackoff(addr, Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}, 0, stop)
		ch <- res{c, err}
	}()
	time.Sleep(15 * time.Millisecond)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("dial with backoff failed: %v", r.err)
		}
		r.c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("dialer never connected after listener came up")
	}
}

func TestDialBackoffStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if _, err := DialBackoff("127.0.0.1:1", DefaultBackoff, 0, stop); err == nil {
		t.Fatal("closed stop channel must abort the dial loop")
	}
	if _, err := DialBackoff("127.0.0.1:1", Backoff{Base: time.Millisecond, Max: time.Millisecond}, 2, nil); err == nil {
		t.Fatal("maxAttempts must bound the dial loop")
	}
}
