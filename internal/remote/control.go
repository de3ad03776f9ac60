package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"s3sched/internal/comms"
)

// RegisterOptions configures a worker's session with a master. The zero
// value is usable.
type RegisterOptions struct {
	// ID is the worker's stable identity. Re-registering the same ID
	// after a restart replaces the previous incarnation in the master's
	// membership table. Defaults to "worker@<host name>:<task port>".
	ID string
	// Heartbeat is the interval at which the master is expected to call
	// (default DefaultHeartbeat). A master silent for five of them has
	// lost the worker, which re-dials, waiting Heartbeat/10 after a
	// failed attempt, then twice as long each time, up to 5 × Heartbeat.
	Heartbeat time.Duration
}

// DefaultHeartbeat is the default heartbeat interval.
const DefaultHeartbeat = time.Second

// Register puts the worker in registration mode: a background loop
// dials the master's control address and registers — identity, the
// address Serve bound, map slots — on that connection, which then
// carries every master → worker call: the tasks, and the master's
// heartbeat, a Stats call every opts.Heartbeat. Any session error —
// master restart, network cut, five heartbeats of silence — tears the
// session down and the loop re-dials and re-registers, so a worker
// survives both its own restart (its supervisor calls Register again)
// and the master's. Serve must have been called first; Close stops the
// loop.
func (w *Worker) Register(master string, opts RegisterOptions) error {
	if master == "" {
		return fmt.Errorf("remote: register needs a master address")
	}
	w.mu.Lock()
	bound := w.addr
	w.mu.Unlock()
	if bound == "" {
		return fmt.Errorf("remote: register before Serve — peers need the task address to fetch from")
	}
	if opts.ID == "" {
		opts.ID = "worker@" + bound
		if host, err := os.Hostname(); err == nil {
			_, port, _ := net.SplitHostPort(bound)
			opts.ID = "worker@" + net.JoinHostPort(host, port)
		}
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	reg := &registration{ID: opts.ID, Addr: bound, MapSlots: w.slots}

	w.ctlMu.Lock()
	defer w.ctlMu.Unlock()
	if w.ctlStop != nil {
		return fmt.Errorf("remote: worker already registered with a master")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done, hb := make(chan struct{}), opts.Heartbeat
	w.ctlStop = func() { cancel(); <-done }
	go func() {
		defer close(done)
		comms.Redial(ctx, func() (bool, error) { return w.session(ctx, master, reg, hb) },
			func(n int) time.Duration { return redialDelay(hb, n) })
	}()
	return nil
}

// stopControl ends the control loop, if one is running, and waits for it.
func (w *Worker) stopControl() {
	w.ctlMu.Lock()
	stop := w.ctlStop
	w.ctlStop = nil
	w.ctlMu.Unlock()
	if stop != nil {
		stop()
	}
}

// redialDelay is the wait before a worker heartbeating every hb re-dials
// after its attempt-th failure in a row (0-based): hb/10, doubling, at
// most 5 × hb.
func redialDelay(hb time.Duration, attempt int) time.Duration {
	d := hb / 10
	for i := 0; i < attempt && d < 5*hb; i++ {
		d *= 2
	}
	return min(d, 5*hb)
}

// session runs one connection to the master: the registration, then the
// master's calls until the connection breaks, the master has been silent
// for five heartbeats or ctx ends. It returns whether the master took
// the registration, and why the session ended.
func (w *Worker) session(ctx context.Context, master string, reg *registration, hb time.Duration) (registered bool, err error) {
	conn, err := (&net.Dialer{Timeout: 5 * hb}).DialContext(ctx, "tcp", master)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	br, err := join(conn, reg, 5*hb)
	if err != nil {
		return false, err
	}
	w.registrations.Add(1)
	return true, serveConn(conn, br, dispatchTo(w), 5*hb)
}

// join registers reg on conn, a new connection to the master: the
// hellos, the register frame and the master's answer, within timeout. It
// returns the reader the connection's requests come through. A refusal
// returns as a serverError.
func join(conn net.Conn, reg *registration, timeout time.Duration) (*bufio.Reader, error) {
	br := bufio.NewReader(conn)
	deadline := time.Now().Add(timeout)
	if err := comms.Handshake(conn, br, deadline); err != nil {
		return nil, err
	}
	peer := conn.RemoteAddr().String()
	frame := reg.appendTo(comms.AppendHeader(nil, 1, byte(registerWorker)))
	if err := comms.EndFrame(frame, peer); err != nil {
		return nil, err
	}
	conn.SetDeadline(deadline)
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	_, status, body, err := comms.ReadFrame(br, make([]byte, comms.FrameHeader), peer)
	switch {
	case err != nil:
		return nil, err
	case status != statusOK:
		return nil, serverError(body)
	}
	return br, conn.SetDeadline(time.Time{})
}

// wireStats snapshots the worker's self-reported ledger.
func (w *Worker) wireStats() comms.WireStats {
	st := w.store.Stats()
	cs := w.store.CacheStats()
	w.stash.mu.Lock()
	stashBytes, stashEntries := w.stash.bytes, w.stash.entries
	resultBytes, resultEntries, evictions, served := w.stash.resultBytes, int64(len(w.stash.results)), w.stash.evictions, w.stash.served
	w.stash.mu.Unlock()
	return comms.WireStats{
		BlockReads:          st.BlockReads,
		BytesScanned:        st.BytesScanned,
		FailedReads:         st.FailedReads,
		MapTasks:            w.mapTasks.Load(),
		MapPasses:           w.mapPasses.Load(),
		ReduceTasks:         w.reduceTasks.Load(),
		CacheHits:           cs.Hits,
		CacheMisses:         cs.Misses,
		CacheEvictions:      cs.Evictions,
		CachePrefetches:     cs.Prefetches,
		CachePrefetchFailed: cs.PrefetchFailed,
		CacheBytes:          cs.Bytes,
		CachePinnedBytes:    cs.PinnedBytes,
		StashBytes:          stashBytes,
		StashEntries:        stashEntries,
		ShuffleServedBytes:  w.servedBytes.Load(),
		ShuffleFetchedBytes: w.fetchedBytes.Load(),
		ResultBytes:         resultBytes,
		ResultEntries:       resultEntries,
		ResultEvictions:     evictions,
		ResultServedBytes:   served,
	}
}
