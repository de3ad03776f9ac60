package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The task wire (DESIGN.md, "Task wire"): the one call layer of master →
// worker and worker → worker task calls. A connection opens with a hello
// each way, then carries frames: a header — the body's length (uint32),
// the call id (uint64), both little-endian, and a method byte on a
// request or a status byte on a reply — and the body, the message's
// codec (codec.go) or a task-level error's text. Replies come back in
// any order, matched to their calls by id.

const (
	// hello opens a connection each way: a magic, the protocol version
	// (byte 7), a newline. No gob stream starts with its first byte, and
	// its newline ends an HTTP request line, so a net/rpc or HTTP peer
	// fails at once instead of waiting for more.
	hello = "\xf1s3task\x01\n"
	// frameHeader is a frame's header length; maxFrame bounds its body.
	frameHeader = 13
	maxFrame    = 1 << 30
	// handshakeTimeout bounds the hellos where the caller sets no bound.
	handshakeTimeout = 10 * time.Second
)

// method names a task call on the wire.
type method byte

const (
	execMap method = iota + 1
	execReduce
	fetchShuffle
	fetchResult
	installFile
	workerStats
)

var methodNames = [...]string{execMap: "Worker.ExecMap", execReduce: "Worker.ExecReduce", fetchShuffle: "Worker.FetchShuffle",
	fetchResult: "Worker.FetchResult", installFile: "Worker.InstallFile", workerStats: "Worker.Stats"}

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

// wireError is a task connection that broke the protocol: a peer that
// sent no hello or another one — a net/rpc or HTTP server, or a worker
// of another version — or a frame over maxFrame.
type wireError struct {
	peer   string
	reason string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("remote: task connection with %s: %s", e.peer, e.reason)
}

// errExpired is a call its caller stopped waiting for.
var errExpired = errors.New("remote: task call abandoned at its deadline")

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

// handshake sends the hello and reads the peer's, both by deadline.
func handshake(conn net.Conn, r io.Reader, deadline time.Time) error {
	conn.SetDeadline(deadline)
	peer := conn.RemoteAddr().String()
	if _, err := io.WriteString(conn, hello); err != nil {
		return err
	}
	var got [len(hello)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("%w: %w", &wireError{peer, "no hello: not a task server or client"}, err)
	}
	if string(got[:]) != hello {
		if string(got[:7]) == hello[:7] {
			return &wireError{peer, fmt.Sprintf("protocol version %d, this is %d", got[7], hello[7])}
		}
		return &wireError{peer, fmt.Sprintf("hello %q: not a task server or client", got[:])}
	}
	return conn.SetDeadline(time.Time{})
}

// appendHeader starts a frame; endFrame fills in its length once the
// body is appended, and refuses one over maxFrame.
func appendHeader(b []byte, id uint64, kind byte) []byte {
	return append(binary.LittleEndian.AppendUint64(append(b, 0, 0, 0, 0), id), kind)
}

func endFrame(frame []byte, peer string) error {
	n := len(frame) - frameHeader
	if n > maxFrame {
		return &wireError{peer, fmt.Sprintf("a %d-byte frame, over the %d-byte bound", n, maxFrame)}
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// readFrame reads one frame into hdr and a body of its own, refusing a
// length over maxFrame before it allocates.
func readFrame(r io.Reader, hdr []byte, peer string) (id uint64, kind byte, body []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:frameHeader]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return 0, 0, nil, &wireError{peer, fmt.Sprintf("a %d-byte frame, over the %d-byte bound", n, maxFrame)}
	}
	body = make([]byte, n)
	if _, err = io.ReadFull(r, body); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], body, err
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
	if err := handshake(conn, br, time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, err
	}
	c := &taskClient{conn: conn, peer: addr, pending: make(map[uint64]*taskCall), reading: make(chan struct{})}
	go c.readReplies(br)
	return c, nil
}

func (c *taskClient) readReplies(br *bufio.Reader) {
	defer close(c.reading)
	hdr := make([]byte, frameHeader)
	for {
		id, status, body, err := readFrame(br, hdr, c.peer)
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
	frame := args.appendTo(appendHeader(c.wbuf[:0], call.id, byte(m)))
	err := endFrame(frame, c.peer)
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

// wait decodes call's reply into reply. Once expired is closed a call
// still pending is abandoned with errExpired, and its reply, should one
// come, is dropped by its id; nil never expires.
func (c *taskClient) wait(call *taskCall, reply message, expired <-chan struct{}) error {
	select {
	case <-call.done:
	case <-expired:
		if c.forget(call) {
			return errExpired
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

// expiry is a channel closed d from now, nil for d <= 0, and what stops
// its timer.
func expiry(d time.Duration) (<-chan struct{}, func() bool) {
	if d <= 0 {
		return nil, func() bool { return false }
	}
	expired := make(chan struct{})
	return expired, time.AfterFunc(d, func() { close(expired) }).Stop
}

// callWithin issues one call and, when d is positive, abandons it after
// d with a *TaskDeadlineError naming who.
func callWithin(c *taskClient, who string, m method, args, reply message, d time.Duration) error {
	expired, stop := expiry(d)
	defer stop()
	err := c.wait(c.send(m, args), reply, expired)
	if err == errExpired {
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
// returns why. Its goroutines live as long as the connection: the one
// that holds the read side reads a request, passes the read side to an
// idle sibling — starting one only if none is idle — and serves the
// request itself, so calls on one connection run side by side and a
// connection in steady state starts no goroutine per call.
func serveTasks(conn net.Conn, serve serveFunc) error {
	br := bufio.NewReader(conn)
	if err := handshake(conn, br, time.Now().Add(handshakeTimeout)); err != nil {
		conn.Close()
		return err
	}
	c := &taskConn{conn: conn, peer: conn.RemoteAddr().String(), br: br, serve: serve, turn: make(chan struct{}), down: make(chan struct{})}
	c.run()
	<-c.down
	return c.err
}

// maxIdle bounds a connection's idle serving goroutines: one that
// finishes a call with this many idle exits.
const maxIdle = 16

// taskConn is the serving side of a task connection.
type taskConn struct {
	conn  net.Conn
	peer  string
	br    *bufio.Reader // the read side's
	serve serveFunc
	wmu   sync.Mutex
	idle  atomic.Int32  // goroutines parked for the read side
	turn  chan struct{} // passes the read side to one of them
	once  sync.Once
	down  chan struct{} // closed once the connection is
	err   error         // why, set before down closes
}

func (c *taskConn) run() {
	hdr := make([]byte, frameHeader)
	var out []byte
	for {
		id, m, req, err := readFrame(c.br, hdr, c.peer)
		if err != nil {
			c.shutdown(err)
			return
		}
		c.passReadSide()
		out, err = c.serve(method(m), req, appendHeader(out[:0], id, statusOK))
		if err == nil {
			err = endFrame(out, c.peer)
		}
		if err != nil {
			out = append(appendHeader(out[:0], id, statusError), err.Error()...)
			_ = endFrame(out, c.peer) // an error's text is not a gigabyte
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
