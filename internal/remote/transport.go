package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s3sched/internal/comms"
)

// The task wire (DESIGN.md, "Task wire"): the one call layer of master →
// worker and worker → worker task calls, over comms' frames. A body is
// the message's codec (codec.go) or a task-level error's text. Replies
// come back in any order, matched to their calls by id.

// handshakeTimeout bounds the hellos where the caller sets no bound.
const handshakeTimeout = 10 * time.Second

// method names a task call on the wire.
type method byte

const (
	execMap method = iota + 1
	execReduce
	fetchShuffle
	fetchResult
	installFile
	workerStats
	// registerWorker is the one request a worker sends its master: the
	// first frame on its connection (control.go).
	registerWorker
)

var methodNames = [...]string{execMap: "Worker.ExecMap", execReduce: "Worker.ExecReduce", fetchShuffle: "Worker.FetchShuffle",
	fetchResult: "Worker.FetchResult", installFile: "Worker.InstallFile", workerStats: "Worker.Stats", registerWorker: "register"}

func (m method) String() string {
	if int(m) < len(methodNames) && methodNames[m] != "" {
		return methodNames[m]
	}
	return fmt.Sprintf("task method %d", m)
}

// A reply's status byte.
const (
	statusOK byte = iota
	statusError
)

// TaskDeadlineError marks a worker call abandoned by the master's
// per-task deadline watchdog: the call did not return within the
// configured bound, so the master stopped waiting and moved on. It
// implements net.Error, so isTransportError classifies it as a
// transport failure and the task fails over to the next live worker —
// a wedged worker (deadlocked, GC-stalled, half-partitioned) is
// indistinguishable from a dead one to the caller, and must be treated
// the same or one stuck call wedges the whole round forever.
//
// The abandoned call is NOT cancelled on the worker (the wire has no
// cancel message); if it eventually finishes, its reply is discarded by
// its id. A map task that finishes late has by then run elsewhere too:
// two workers hold the block's run under one stash key, the same bytes,
// and a reducer that meets both keeps one (gathered.add); a late reduce
// produced output nobody reads. Peer fetches inside a reduce are
// abandoned the same way.
type TaskDeadlineError struct {
	// Worker is the id of the worker that failed to respond.
	Worker string
	// Method is the stalled call (Worker.ExecMap / ExecReduce /
	// FetchShuffle; for a fetch, Worker is the peer's task address).
	Method string
	// Deadline is the bound the call exceeded.
	Deadline time.Duration
}

func (e *TaskDeadlineError) Error() string {
	return fmt.Sprintf("remote: %s on worker %s exceeded the %v task deadline", e.Method, e.Worker, e.Deadline)
}

// Timeout implements net.Error.
func (e *TaskDeadlineError) Timeout() bool { return true }

// Temporary implements net.Error (deprecated in net, but part of the
// interface): deadline expiry says nothing permanent about the worker.
func (e *TaskDeadlineError) Temporary() bool { return true }

// serverError is a task-level failure: the error a handler returned,
// as its text.
type serverError string

func (e serverError) Error() string { return string(e) }

// isTransportError distinguishes a dead connection (retry the task on
// another worker) from a task-level failure the job owns (propagate to
// the caller). The classification is explicit: only errors that prove
// the *transport* failed — not the task — justify failover, because
// retrying a task whose error was produced by its own map/reduce code
// would re-execute a deterministic failure on every worker, and
// retrying a client-side encode bug would mask it as a dead cluster.
//
// Transport errors are:
//   - net.Error (dial failures, i/o timeouts, refused connections, a
//     task deadline)
//   - io.EOF / io.ErrUnexpectedEOF (connection torn down mid-call —
//     a worker crash surfaces this way)
//   - net.ErrClosed (the client already closed, e.g. by the membership
//     table declaring the worker dead mid-round)
//
// Everything else — a serverError (the remote handler returned an
// error), a malformed message, a wireError, and any other client-side
// bug — is task-level and is returned to the caller unchanged.
func isTransportError(err error) bool {
	if err == nil {
		return false
	}
	if _, serverSide := err.(serverError); serverSide {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// taskClient is the calling side of a task connection. Calls come from
// any goroutine; each request is written whole under wmu, and one
// long-lived goroutine reads the replies and hands each to its call.
type taskClient struct {
	conn net.Conn
	peer string
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]*taskCall
	next    uint64
	err     error         // why the connection is down, once it is
	reading chan struct{} // closed once the reader has exited
}

// taskCall is one call in flight. Whoever takes it out of pending under
// the client's lock — the reader, shutdown, an abandoning wait — or
// never put it there closes done.
type taskCall struct {
	id     uint64
	m      method
	done   chan struct{}
	err    error
	failed bool // the body is a handler's error
	body   []byte
}

// dialTask opens a task connection to addr, the dial and the hellos
// bounded by timeout (zero: the system's dial bound, handshakeTimeout).
func dialTask(addr string, timeout time.Duration) (*taskClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = handshakeTimeout
	}
	br := bufio.NewReader(conn)
	if err := comms.Handshake(conn, br, time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, err
	}
	return newTaskClient(conn, br, addr), nil
}

// newTaskClient calls over conn, whose hellos are exchanged, reading
// replies through br: a connection it dialled, or one a worker dialled
// and registered on.
func newTaskClient(conn net.Conn, br *bufio.Reader, peer string) *taskClient {
	c := &taskClient{conn: conn, peer: peer, pending: make(map[uint64]*taskCall), reading: make(chan struct{})}
	go c.readReplies(br)
	return c
}

func (c *taskClient) readReplies(br *bufio.Reader) {
	defer close(c.reading)
	hdr := make([]byte, comms.FrameHeader)
	for {
		id, status, body, err := comms.ReadFrame(br, hdr, c.peer)
		if err != nil {
			c.shutdown(err)
			return
		}
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if call != nil { // else abandoned: the late reply is dropped
			call.failed, call.body = status != statusOK, body
			close(call.done)
		}
	}
}

// shutdown closes the connection and fails every pending call with err.
func (c *taskClient) shutdown(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range pending {
		call.err = err
		close(call.done)
	}
}

// Close shuts the connection and returns once its reader has exited.
func (c *taskClient) Close() error {
	c.shutdown(net.ErrClosed)
	<-c.reading
	return nil
}

// failure is why the connection went down; call it once reading is closed.
func (c *taskClient) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// send writes one request and returns its call at once; wait collects
// the reply.
func (c *taskClient) send(m method, args message) *taskCall {
	call := &taskCall{m: m, done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		call.err = fmt.Errorf("remote: task connection to %s is down (%v): %w", c.peer, c.err, net.ErrClosed)
		close(call.done)
		return call
	}
	c.next++
	call.id = c.next
	c.pending[call.id] = call
	c.mu.Unlock()

	c.wmu.Lock()
	frame := args.appendTo(comms.AppendHeader(c.wbuf[:0], call.id, byte(m)))
	err := comms.EndFrame(frame, c.peer)
	tooBig := err != nil
	if !tooBig {
		_, err = c.conn.Write(frame)
	}
	if cap(frame) <= 1<<20 { // keep a buffer, not a file install's
		c.wbuf = frame
	}
	c.wmu.Unlock()
	switch {
	case tooBig && c.forget(call):
		call.err = err
		close(call.done)
	case err != nil && !tooBig:
		c.shutdown(err) // fails the call with the rest
	}
	return call
}

// forget takes call out of pending, reporting whether it was there.
func (c *taskClient) forget(call *taskCall) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[call.id] != call {
		return false
	}
	delete(c.pending, call.id)
	return true
}

// wait decodes call's reply into reply. Once ctx ends a call still
// pending is abandoned with ctx's error, and its reply, should one come,
// is dropped by its id.
func (c *taskClient) wait(ctx context.Context, call *taskCall, reply message) error {
	select {
	case <-call.done:
	case <-ctx.Done():
		if c.forget(call) {
			return ctx.Err()
		}
		<-call.done // the reply is in, or the connection down
	}
	switch {
	case call.err != nil:
		return call.err
	case call.failed:
		return serverError(call.body)
	}
	if err := decodeMessage(call.body, reply); err != nil {
		return fmt.Errorf("remote: malformed reply to %v from %s: %w", call.m, c.peer, err)
	}
	return nil
}

// within is a context that ends d from now, never for d <= 0.
func within(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// callWithin issues one call and, when d is positive, abandons it after
// d with a *TaskDeadlineError naming who.
func callWithin(c *taskClient, who string, m method, args, reply message, d time.Duration) error {
	ctx, cancel := within(d)
	defer cancel()
	err := c.wait(ctx, c.send(m, args), reply)
	if err == context.DeadlineExceeded {
		err = &TaskDeadlineError{Worker: who, Method: m.String(), Deadline: d}
	}
	return err
}

// taskHandler is what a task connection serves: the Worker, or a test's
// double of it.
type taskHandler interface {
	ExecMap(*MapTaskArgs, *MapTaskReply) error
	ExecReduce(*ReduceTaskArgs, *ReduceTaskReply) error
	FetchShuffle(*FetchArgs, *FetchReply) error
	FetchResult(*FetchArgs, *[]byte) error
	InstallFile(*InstallFileArgs, *InstallFileReply) error
	Stats(*StatsArgs, *StatsReply) error
}

// serveFunc answers one request: it appends to out the reply body for
// method m's request body req, or returns the task-level error.
type serveFunc func(m method, req, out []byte) ([]byte, error)

// dispatchTo serves h's six handlers.
func dispatchTo(h taskHandler) serveFunc {
	return func(m method, req, out []byte) ([]byte, error) {
		switch m {
		case execMap:
			return handle(m, req, out, h.ExecMap)
		case execReduce:
			return handle(m, req, out, h.ExecReduce)
		case fetchShuffle:
			return handle(m, req, out, h.FetchShuffle)
		case fetchResult:
			return handle(m, req, out, func(args *FetchArgs, frame *resultFrame) error { return h.FetchResult(args, (*[]byte)(frame)) })
		case installFile:
			return handle(m, req, out, h.InstallFile)
		case workerStats:
			return handle(m, req, out, h.Stats)
		}
		return out, fmt.Errorf("remote: no %v", m)
	}
}

// handle decodes a request, runs its handler and appends the reply.
func handle[A, R any, PA interface {
	*A
	message
}, PR interface {
	*R
	message
}](m method, req, out []byte, handler func(PA, PR) error) ([]byte, error) {
	args, reply := PA(new(A)), PR(new(R))
	if err := decodeMessage(req, args); err != nil {
		return out, fmt.Errorf("remote: malformed %v request: %w", m, err)
	}
	if err := handler(args, reply); err != nil {
		return out, err
	}
	return reply.appendTo(out), nil
}

// serveTasks serves one accepted task connection until it breaks, and
// returns why.
func serveTasks(conn net.Conn, serve serveFunc) error {
	br := bufio.NewReader(conn)
	if err := comms.Handshake(conn, br, time.Now().Add(handshakeTimeout)); err != nil {
		conn.Close()
		return err
	}
	return serveConn(conn, br, serve, 0)
}

// serveConn serves conn, whose hellos are exchanged, reading requests
// through br, until it breaks or — when silence is positive — no
// request has come for that long, and returns why. Its goroutines live
// as long as the connection: the one that holds the read side reads a
// request, passes the read side to an idle sibling — starting one only
// if none is idle — and serves the request itself, so calls on one
// connection run side by side and a connection in steady state starts
// no goroutine per call. A goroutine started per request would be 98
// lines shorter, but on admit-durable it cost ×1.046 CPU per job (1.178
// → 1.233 ms) and ×0.990 jobs/s, losing 4 of 4 A/B pairs.
func serveConn(conn net.Conn, br *bufio.Reader, serve serveFunc, silence time.Duration) error {
	c := &taskConn{conn: conn, peer: conn.RemoteAddr().String(), br: br, serve: serve, silence: silence, turn: make(chan struct{}), down: make(chan struct{})}
	c.run()
	<-c.down
	return c.err
}

// maxIdle bounds a connection's idle serving goroutines: one that
// finishes a call with this many idle exits.
const maxIdle = 16

// taskConn is the serving side of a task connection.
type taskConn struct {
	conn    net.Conn
	peer    string
	br      *bufio.Reader // the read side's
	serve   serveFunc
	silence time.Duration // bounds each request's read, when positive
	wmu     sync.Mutex
	idle    atomic.Int32  // goroutines parked for the read side
	turn    chan struct{} // passes the read side to one of them
	once    sync.Once
	down    chan struct{} // closed once the connection is
	err     error         // why, set before down closes
}

func (c *taskConn) run() {
	hdr := make([]byte, comms.FrameHeader)
	var out []byte
	for {
		if c.silence > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.silence))
		}
		id, m, req, err := comms.ReadFrame(c.br, hdr, c.peer)
		if err != nil {
			c.shutdown(err)
			return
		}
		c.passReadSide()
		out, err = c.serve(method(m), req, comms.AppendHeader(out[:0], id, statusOK))
		if err == nil {
			err = comms.EndFrame(out, c.peer)
		}
		if err != nil {
			out = append(comms.AppendHeader(out[:0], id, statusError), err.Error()...)
			_ = comms.EndFrame(out, c.peer) // an error's text is not a gigabyte
		}
		c.wmu.Lock()
		_, err = c.conn.Write(out)
		c.wmu.Unlock()
		if err != nil {
			c.shutdown(err)
			return
		}
		if cap(out) > 1<<20 { // keep a buffer, not a fetch reply's
			out = nil
		}
		if !c.park() {
			return
		}
	}
}

// passReadSide wakes an idle goroutine to read the next request, or
// starts one if none is idle.
func (c *taskConn) passReadSide() {
	if c.idle.Add(-1) >= 0 {
		select {
		case c.turn <- struct{}{}:
		case <-c.down:
		}
		return
	}
	c.idle.Add(1)
	go c.run()
}

// park waits for the read side; false once the connection is down, or
// when enough goroutines wait already.
func (c *taskConn) park() bool {
	if c.idle.Load() >= maxIdle {
		return false
	}
	c.idle.Add(1)
	select {
	case <-c.turn:
		return true
	case <-c.down:
		return false
	}
}

func (c *taskConn) shutdown(err error) {
	c.once.Do(func() {
		c.err = err
		c.conn.Close()
		close(c.down)
	})
}
