package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"time"
)

// TaskDeadlineError marks a worker RPC abandoned by the master's
// per-task deadline watchdog: the call did not return within the
// configured bound, so the master stopped waiting and moved on. It
// implements net.Error, so isTransportError classifies it as a
// transport failure and the task fails over to the next live worker —
// a wedged worker (deadlocked, GC-stalled, half-partitioned) is
// indistinguishable from a dead one to the caller, and must be treated
// the same or one stuck RPC wedges the whole round forever.
//
// The abandoned call is NOT cancelled on the worker (net/rpc has no
// cancellation); if it eventually finishes, its reply is discarded. A
// map task that finishes late has by then run elsewhere too: two workers
// hold the block's run under one stash key, the same bytes, and a reducer
// that meets both keeps one (gathered.add); a late reduce produced output
// nobody reads. Peer fetches inside a reduce are abandoned the same way.
type TaskDeadlineError struct {
	// Worker is the id of the worker that failed to respond.
	Worker string
	// Method is the stalled RPC method (Worker.ExecMap / ExecReduce /
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

// isTransportError distinguishes a dead connection (retry the task on
// another worker) from a task-level failure the job owns (propagate to
// the caller). The classification is explicit: only errors that prove
// the *transport* failed — not the task — justify failover, because
// retrying a task whose error was produced by its own map/reduce code
// would re-execute a deterministic failure on every worker, and
// retrying a client-side encode bug would mask it as a dead cluster.
//
// Transport errors are:
//   - net.Error (dial failures, i/o timeouts, refused connections)
//   - io.EOF / io.ErrUnexpectedEOF (connection torn down mid-call —
//     net/rpc surfaces a worker crash this way)
//   - rpc.ErrShutdown (client already closed, e.g. by the membership
//     table declaring the worker dead mid-round)
//
// Everything else — rpc.ServerError (the remote handler returned an
// error), gob encode/decode failures, and any other client-side bug —
// is task-level and is returned to the caller unchanged.
func isTransportError(err error) bool {
	if err == nil {
		return false
	}
	if _, serverSide := err.(rpc.ServerError); serverSide {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, rpc.ErrShutdown) {
		return true
	}
	return false
}
