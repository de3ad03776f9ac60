package remote

import (
	"fmt"
	"net"
	"os"
	"time"

	"s3sched/internal/comms"
)

// RegisterOptions configures a worker's control-plane session with a
// master. The zero value is usable: identity and advertised address
// derive from the bound task listener, heartbeats default to
// DefaultHeartbeat, and dialing retries forever on DefaultBackoff.
type RegisterOptions struct {
	// ID is the worker's stable identity. Re-registering the same ID
	// after a restart replaces the previous incarnation in the master's
	// membership table. Defaults to "worker@<task address>".
	ID string
	// TaskAddr is the address the master dials back for task RPCs.
	// Defaults to the bound listen address, with an unspecified host
	// (0.0.0.0 / ::) replaced by the machine hostname so it stays
	// reachable across containers.
	TaskAddr string
	// Heartbeat is the interval between liveness frames (default
	// DefaultHeartbeat). The master's deadlines should allow at least
	// two missed beats before declaring the worker dead.
	Heartbeat time.Duration
	// Backoff paces reconnect attempts (default comms.DefaultBackoff).
	Backoff comms.Backoff
	// MaxDials bounds consecutive failed dial attempts per reconnect
	// cycle; 0 retries forever (a worker outliving a master restart).
	MaxDials int
}

// DefaultHeartbeat is the default worker heartbeat interval.
const DefaultHeartbeat = time.Second

// Register puts the worker in registration mode: a background loop
// dials the master's control address with exponential backoff, sends a
// registration frame (identity, task address, block inventory,
// capabilities), then heartbeats every opts.Heartbeat. Any session
// error — master restart, network cut — tears the session down and the
// loop re-dials and re-registers, so a worker survives both its own
// restart (its supervisor calls Register again) and the master's.
// Serve must have been called first; Close stops the loop.
func (w *Worker) Register(master string, opts RegisterOptions) error {
	if master == "" {
		return fmt.Errorf("remote: register needs a master address")
	}
	w.mu.Lock()
	bound := w.addr
	w.mu.Unlock()
	if bound == "" {
		return fmt.Errorf("remote: register before Serve — the master needs a task address to dial back")
	}
	if opts.TaskAddr == "" {
		opts.TaskAddr = advertiseAddr(bound)
	}
	if opts.ID == "" {
		opts.ID = "worker@" + opts.TaskAddr
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}

	w.ctlMu.Lock()
	defer w.ctlMu.Unlock()
	if w.ctlStop != nil {
		return fmt.Errorf("remote: worker already registered with a master")
	}
	w.ctlStop = make(chan struct{})
	w.ctlDone = make(chan struct{})
	// The channels are handed to the loop by value: stopControl nils
	// the struct fields under ctlMu, so the loop must never read them
	// through w.
	go w.controlLoop(master, opts, w.ctlStop, w.ctlDone)
	return nil
}

// stopControl terminates the control loop, if one is running.
func (w *Worker) stopControl() {
	w.ctlMu.Lock()
	stop, done := w.ctlStop, w.ctlDone
	w.ctlStop, w.ctlDone = nil, nil
	w.ctlMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// controlLoop is the reconnect-forever session driver.
func (w *Worker) controlLoop(master string, opts RegisterOptions, stop, done chan struct{}) {
	defer close(done)
	failures := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := comms.DialBackoff(master, opts.Backoff, opts.MaxDials, stop)
		if err != nil {
			return // shutting down, or MaxDials exhausted
		}
		err = w.controlSession(conn, opts, stop)
		conn.Close()
		if err == nil {
			return // clean shutdown
		}
		// Pace re-registration after a failed session so a rejecting
		// master is not hammered in a tight loop.
		failures++
		select {
		case <-stop:
			return
		case <-time.After(opts.Backoff.Delay(failures)):
		}
	}
}

// controlSession runs one registration + heartbeat session to
// completion. It returns nil only on clean shutdown; any error means
// the caller should reconnect.
func (w *Worker) controlSession(conn *comms.Conn, opts RegisterOptions, stop <-chan struct{}) error {
	// Unblock the pending Recv when shutdown lands mid-session.
	sessionOver := make(chan struct{})
	defer close(sessionOver)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-sessionOver:
		}
	}()

	reg := &comms.RegisterFrame{
		ID:           opts.ID,
		TaskAddr:     opts.TaskAddr,
		Blocks:       w.store.Inventory(),
		Capabilities: comms.Capabilities{MapSlots: w.slots},
	}
	if c := w.store.Cache(); c != nil {
		reg.Capabilities.CacheBytes = c.Budget()
	}
	if err := conn.Send(comms.Envelope{Kind: comms.FrameRegister, Register: reg}); err != nil {
		return err
	}
	ack, err := w.awaitAck(conn, opts.Heartbeat)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("remote: master rejected registration: %s", ack.Msg)
	}
	w.registrations.Add(1)

	ticker := time.NewTicker(opts.Heartbeat)
	defer ticker.Stop()
	var seq int64
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
		}
		seq++
		hb := &comms.HeartbeatFrame{Seq: seq, Stats: w.wireStats()}
		if err := conn.Send(comms.Envelope{Kind: comms.FrameHeartbeat, Heartbeat: hb}); err != nil {
			return err
		}
		if _, err := w.awaitAck(conn, opts.Heartbeat); err != nil {
			return err
		}
		w.heartbeats.Add(1)
	}
}

// awaitAck reads the master's next frame, bounded by a deadline of
// several heartbeat intervals — a master silent that long is as dead
// as a closed connection.
func (w *Worker) awaitAck(conn *comms.Conn, heartbeat time.Duration) (*comms.AckFrame, error) {
	if err := conn.SetReadDeadline(time.Now().Add(5 * heartbeat)); err != nil {
		return nil, err
	}
	env, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if env.Kind != comms.FrameAck || env.Ack == nil {
		return nil, fmt.Errorf("remote: expected ack, got %s frame", env.Kind)
	}
	return env.Ack, nil
}

// wireStats snapshots the worker's self-reported ledger for heartbeats.
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

// advertiseAddr rewrites an unspecified listen host (0.0.0.0, ::, or
// empty) to the machine hostname so the advertised task address is
// dialable from other machines/containers.
func advertiseAddr(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		if h, herr := os.Hostname(); herr == nil && h != "" {
			return net.JoinHostPort(h, port)
		}
	}
	return bound
}
