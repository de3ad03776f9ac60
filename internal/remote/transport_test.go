package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"testing"
	"time"

	"s3sched/internal/scheduler"
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
		{"task-level rpc.ServerError", rpc.ServerError("remote: job exploded"), false},
		{"io.EOF", io.EOF, true},
		{"io.ErrUnexpectedEOF", io.ErrUnexpectedEOF, true},
		{"rpc.ErrShutdown", rpc.ErrShutdown, true},
		{"net.OpError", &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset")}, true},
		{"net.Error timeout", timeoutErr{}, true},
		{"wrapped EOF", fmt.Errorf("call failed: %w", io.EOF), true},
		{"wrapped shutdown", fmt.Errorf("call failed: %w", rpc.ErrShutdown), true},
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
// by a live net/rpc round trip rather than hand-built values: a
// server-side task error must stay non-transport, and a call against a
// closed connection must classify as transport.
func TestRealRPCErrorsClassify(t *testing.T) {
	store := testStore(t)
	w := NewWorker(store, NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A task-level failure (unknown factory) crosses the wire as
	// rpc.ServerError.
	var mr MapTaskReply
	err = client.Call("Worker.ExecMap", &MapTaskArgs{
		File: "corpus", Blocks: []int{0}, IDs: []scheduler.JobID{1},
		Jobs: []JobRef{{Factory: "nope", NumReduce: 1}},
	}, &mr)
	if err == nil {
		t.Fatal("unknown factory should fail")
	}
	if isTransportError(err) {
		t.Errorf("server-side task error %v classified as transport", err)
	}

	// Killing the worker makes the same call a transport failure.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		err = client.Call("Worker.ExecMap", &MapTaskArgs{
			File: "corpus", Blocks: []int{0}, IDs: []scheduler.JobID{1},
			Jobs: []JobRef{{Factory: "wordcount", Param: "t", NumReduce: 1}},
		}, &mr)
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
