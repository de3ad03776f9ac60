package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"net/rpc"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// timeoutErr implements net.Error with Timeout() = true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestIsTransportError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("boom"), false},
		{"task-level serverError", serverError("remote: job exploded"), false},
		{"wrapped serverError", fmt.Errorf("reduce: %w", serverError("remote: job exploded")), false},
		{"a peer of another protocol", &comms.WireError{Peer: "127.0.0.1:1", Reason: "hello \"GET / HT\""}, false},
		{"a frame over the bound", &comms.WireError{Peer: "127.0.0.1:1", Reason: "a 2147483648-byte frame"}, false},
		{"a peer that hung up before its hello", fmt.Errorf("%w: %w", &comms.WireError{Peer: "127.0.0.1:1", Reason: "no hello"}, io.EOF), true},
		{"io.EOF", io.EOF, true},
		{"io.ErrUnexpectedEOF", io.ErrUnexpectedEOF, true},
		{"net.ErrClosed", net.ErrClosed, true},
		{"task deadline", &TaskDeadlineError{Worker: "w", Method: execMap.String(), Deadline: time.Second}, true},
		{"net.OpError", &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset")}, true},
		{"net.Error timeout", timeoutErr{}, true},
		{"wrapped EOF", fmt.Errorf("call failed: %w", io.EOF), true},
		{"wrapped closed client", fmt.Errorf("call failed: %w", net.ErrClosed), true},
		{"wrapped net error", fmt.Errorf("dial: %w", &net.OpError{Op: "dial", Net: "tcp", Err: os.ErrDeadlineExceeded}), true},
		{"wrapped task error", fmt.Errorf("job: %w", errors.New("bad param")), false},
	}
	for _, tc := range cases {
		if got := isTransportError(tc.err); got != tc.want {
			t.Errorf("%s: isTransportError(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestRealRPCErrorsClassify drives the classifier with errors produced
// by a live task call rather than hand-built values: a server-side task
// error must stay non-transport, and a call against a closed connection
// must classify as transport.
func TestRealRPCErrorsClassify(t *testing.T) {
	store := testStore(t)
	w := NewWorker(store, NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	client, err := dialTask(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A task-level failure (unknown factory) crosses the wire as a
	// serverError.
	var mr MapTaskReply
	err = callWithin(client, addr, execMap, &MapTaskArgs{
		File: "corpus", Blocks: []int{0}, IDs: []scheduler.JobID{1},
		Jobs: []JobRef{{Factory: "nope", NumReduce: 1}},
	}, &mr, 0)
	if err == nil {
		t.Fatal("unknown factory should fail")
	}
	if _, ok := err.(serverError); !ok || isTransportError(err) {
		t.Errorf("server-side task error %v (%T) classified as transport, or not as the server's", err, err)
	}

	// Killing the worker makes the same call a transport failure.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		err = callWithin(client, addr, execMap, &MapTaskArgs{
			File: "corpus", Blocks: []int{0}, IDs: []scheduler.JobID{1},
			Jobs: []JobRef{{Factory: "wordcount", Param: "t", NumReduce: 1}},
		}, &mr, 0)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after Close")
		}
	}
	if !isTransportError(err) {
		t.Errorf("call against closed worker returned %v, not classified as transport", err)
	}
}

// gobServer serves rcvr over net/rpc and gob, as a worker of the
// earlier wire did, and returns its address.
func gobServer(t *testing.T, rcvr any) string {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", rcvr); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String()
}

// gobControlFrame is a registration on the earlier control wire, as a
// worker of that wire sent it: a 4-byte big-endian length, then a gob
// envelope.
func gobControlFrame(t *testing.T) []byte {
	type registerFrame struct {
		ID, TaskAddr string
		Blocks       map[string]int
	}
	type envelope struct {
		Kind     int // 0: a registration
		Register *registerFrame
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&envelope{Register: &registerFrame{ID: "gob-worker", TaskAddr: "127.0.0.1:7001", Blocks: map[string]int{"corpus": testBlocks}}}); err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(body.Len())), body.Bytes()...)
}

// gobMaster accepts connections as a master of the earlier control wire
// did, and returns its address: it reads a frame's 4-byte big-endian
// length, hangs up on one over that wire's 4 MB bound, and else reads the
// frame and waits for the next.
func gobMaster(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for hdr := make([]byte, 4); ; {
					if _, err := io.ReadFull(conn, hdr); err != nil {
						return
					}
					n := binary.BigEndian.Uint32(hdr)
					if n == 0 || n > 4<<20 {
						return
					}
					if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A task client that meets a net/rpc + gob server, or an HTTP one, fails
// its dial at once with a wireError. So does each end of a registration
// on the earlier control wire: a master refuses a gob-framed registration
// at its hello, with no member and no event, and a worker registering
// with a master of that wire fails its session.
func TestHandshakeRefusesOtherServers(t *testing.T) {
	http := httptest.NewServer(nil)
	defer http.Close()
	servers := map[string]string{
		"gob":  gobServer(t, NewWorker(testStore(t), NewStandardRegistry())),
		"http": strings.TrimPrefix(http.URL, "http://"),
	}
	for name, addr := range servers {
		began := time.Now()
		c, err := dialTask(addr, 5*time.Second)
		var wire *comms.WireError
		if !errors.As(err, &wire) {
			if c != nil {
				c.Close()
			}
			t.Errorf("%s server: dial gave %v (%T), want a *comms.WireError", name, err, err)
		} else if took := time.Since(began); took > time.Second {
			t.Errorf("%s server: the refusal took %v", name, took)
		}
	}

	m := NewMaster(nil)
	defer m.Close()
	spans := trace.MustNew(16)
	m.SetTrace(spans)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	refused := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = m.serveControl(conn, testCtlConfig.withDefaults())
		}
		refused <- err
	}()
	worker, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	if _, err := worker.Write(gobControlFrame(t)); err != nil {
		t.Fatal(err)
	}
	var wire *comms.WireError
	if err := <-refused; !errors.As(err, &wire) {
		t.Errorf("a gob-framed registration was refused with %v (%T), want a *comms.WireError", err, err)
	}
	if snap, events := m.ClusterSnapshot(), spans.Events(); len(snap) != 0 || len(events) != 0 {
		t.Errorf("after the refusal: members %+v, events %+v", snap, events)
	}

	w := NewWorker(testStore(t), NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	began := time.Now()
	registered, err := w.session(context.Background(), gobMaster(t), &registration{ID: "w0", Addr: addr, MapSlots: 1}, time.Second)
	if !errors.As(err, &wire) || registered {
		t.Errorf("registering with a gob master: registered %v, %v (%T); want a *comms.WireError", registered, err, err)
	} else if took := time.Since(began); took > time.Second {
		t.Errorf("the gob master's refusal took %v", took)
	}
}

// A net/rpc client calling a task server fails at once, and the server
// returns a wireError.
func TestHandshakeRefusesAGobClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = serveTasks(conn, dispatchTo(NewWorker(testStore(t), NewStandardRegistry())))
		}
		served <- err
	}()
	client, err := rpc.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	call := client.Go("Worker.Stats", &StatsArgs{}, new(StatsReply), make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
		if call.Error == nil {
			t.Error("a gob client's call succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a gob client's call hung")
	}
	var wire *comms.WireError
	if err := <-served; !errors.As(err, &wire) {
		t.Errorf("the server stopped with %v (%T), want a *comms.WireError", err, err)
	}
}

// A frame whose header claims more than comms.MaxFrame is refused with a
// wireError before its body is allocated: by a client, and by a server,
// which hangs up.
func TestFrameOverTheBoundIsRefused(t *testing.T) {
	header := comms.AppendHeader(nil, 7, byte(workerStats))
	binary.LittleEndian.PutUint32(header, comms.MaxFrame+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, body, err := comms.ReadFrame(bytes.NewReader(header), make([]byte, comms.FrameHeader), "peer")
	runtime.ReadMemStats(&after)
	var wire *comms.WireError
	if !errors.As(err, &wire) || body != nil || isTransportError(err) {
		t.Fatalf("an oversized frame read as %d bytes, %v; want a task-level *comms.WireError", len(body), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("refusing it allocated %d bytes", grew)
	}

	client, server := net.Pipe()
	defer client.Close()
	served := make(chan error, 1)
	go func() { served <- serveTasks(server, dispatchTo(NewWorker(testStore(t), NewStandardRegistry()))) }()
	var got [len(comms.Hello)]byte
	go client.Write(append([]byte(comms.Hello), header...))
	if _, err := io.ReadFull(client, got[:]); err != nil || string(got[:]) != comms.Hello {
		t.Fatalf("the server's hello: %q, %v", got, err)
	}
	if err := <-served; !errors.As(err, &wire) {
		t.Errorf("the server stopped with %v, want a *comms.WireError", err)
	}
}

// gatedHandler serves a real worker, except that ExecMap waits for its
// gate, and notes which goroutine served every call.
type gatedHandler struct {
	*Worker
	entered, gate chan struct{}
	mu            sync.Mutex
	goroutines    map[int]int // goroutine id → calls served
}

func (h *gatedHandler) ExecMap(*MapTaskArgs, *MapTaskReply) error {
	h.entered <- struct{}{}
	<-h.gate
	return nil
}

func (h *gatedHandler) Stats(args *StatsArgs, reply *StatsReply) error {
	buf := make([]byte, 64)
	id, _ := strconv.Atoi(strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]) // "goroutine N [running]:"
	h.mu.Lock()
	h.goroutines[id]++
	h.mu.Unlock()
	reply.Worker = fmt.Sprint(args.Epoch)
	return nil
}

func serveGated(t *testing.T) (*gatedHandler, *taskClient, string) {
	t.Helper()
	h := &gatedHandler{Worker: NewWorker(testStore(t), NewStandardRegistry()), entered: make(chan struct{}, 1), gate: make(chan struct{}), goroutines: map[int]int{}}
	addr := serveStub(t, h)
	c, err := dialTask(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return h, c, addr
}

// A call whose handler is blocked does not hold up a second call on the
// same connection.
func TestBlockedCallDoesNotDelayTheNext(t *testing.T) {
	h, c, addr := serveGated(t)
	blocked := c.send(execMap, &MapTaskArgs{})
	<-h.entered
	var reply StatsReply
	if err := callWithin(c, addr, workerStats, &StatsArgs{Epoch: 42}, &reply, 5*time.Second); err != nil || reply.Worker != "42" {
		t.Fatalf("a call beside a blocked one: %+v, %v", reply, err)
	}
	close(h.gate)
	if err := c.wait(context.Background(), blocked, new(MapTaskReply)); err != nil {
		t.Errorf("the released call: %v", err)
	}
}

// A connection in steady state starts no goroutine per call: two hundred
// calls one after another are served by two or three goroutines, taking
// turns at the read side, and four callers at once by a few more.
func TestServerStartsNoGoroutinePerCall(t *testing.T) {
	h, c, addr := serveGated(t)
	call := func(epoch int64) {
		var reply StatsReply
		if err := callWithin(c, addr, workerStats, &StatsArgs{Epoch: epoch}, &reply, 0); err != nil || reply.Worker != fmt.Sprint(epoch) {
			t.Errorf("call %d: %+v, %v", epoch, reply, err)
		}
	}
	for i := int64(0); i < 200; i++ {
		call(i)
	}
	// Two take turns; a third starts if the reader finds the other still
	// writing its reply, and then one is always parked.
	if len(h.goroutines) > 3 {
		t.Errorf("200 calls in a row were served by %d goroutines: %v", len(h.goroutines), h.goroutines)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				call(1000*g + i)
			}
		}()
	}
	wg.Wait()
	if len(h.goroutines) > 2*maxIdle {
		t.Errorf("1,000 calls, 800 of them four at a time, were served by %d goroutines", len(h.goroutines))
	}
	t.Logf("%d goroutines served 1,000 calls", len(h.goroutines))
}

// A call abandoned at its deadline whose reply comes later leaves the
// next call's reply intact: a server that answers the late call first
// and the next one after it, each by its id.
func TestLateReplyLeavesTheNextIntact(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() { // the server: both requests in, both replies out, the late one first
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if err := comms.Handshake(conn, br, time.Now().Add(5*time.Second)); err != nil {
			t.Error(err)
			return
		}
		var ids [2]uint64
		for i := range ids {
			if ids[i], _, _, err = comms.ReadFrame(br, make([]byte, comms.FrameHeader), "client"); err != nil {
				t.Error(err)
				return
			}
		}
		late := (&MapTaskReply{BytesScanned: 1, WallNs: 2}).appendTo(comms.AppendHeader(nil, ids[0], statusOK))
		next := (&StatsReply{Worker: "the next call's"}).appendTo(comms.AppendHeader(nil, ids[1], statusOK))
		if comms.EndFrame(late, "client") != nil || comms.EndFrame(next, "client") != nil {
			t.Error("a reply over the bound")
		}
		if _, err := conn.Write(append(late, next...)); err != nil {
			t.Error(err)
		}
	}()
	c, err := dialTask(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = callWithin(c, "server", execMap, &MapTaskArgs{}, new(MapTaskReply), 20*time.Millisecond)
	var late *TaskDeadlineError
	if !errors.As(err, &late) || late.Method != "Worker.ExecMap" {
		t.Fatalf("the first call: %v, want its deadline", err)
	}
	var reply StatsReply
	if err := callWithin(c, "server", workerStats, &StatsArgs{}, &reply, 5*time.Second); err != nil || reply.Worker != "the next call's" {
		t.Fatalf("the next call got %+v, %v", reply, err)
	}
	<-done
}
