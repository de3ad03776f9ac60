package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// ControlConfig tunes the master's control plane: how long a silent
// worker stays suspect before it is declared dead, and how long a
// workerless round waits for a (re)join before being reported lost.
type ControlConfig struct {
	// SuspectAfter bounds one heartbeat call: one that has no answer by
	// then is a miss, and marks the worker suspect. Suspect workers still
	// receive tasks. The master calls every worker's Stats as its
	// heartbeat every 2/5 of it: the heartbeat interval the workers'
	// RegisterOptions.Heartbeat should match.
	SuspectAfter time.Duration
	// DeadAfter is silence that declares a worker dead: its task client
	// is closed, in-flight tasks fail over, and the master's trace
	// records a worker-lost event. Must exceed SuspectAfter.
	DeadAfter time.Duration
	// RejoinGrace is how long a round with zero live workers blocks
	// waiting for a registration before the round is declared lost and
	// requeued. The requeue loop re-enters the wait, so a full-cluster
	// restart has MaxRequeues × RejoinGrace to bring one worker back.
	RejoinGrace time.Duration
}

// registerTimeout bounds how long an accepted connection may take over
// its hello and registration frame.
const registerTimeout = 10 * time.Second

// withDefaults fills what c leaves zero: a call every DefaultHeartbeat
// (1s) — suspect after 2.5s, dead after 5s — and a 10s rejoin grace.
func (c ControlConfig) withDefaults() ControlConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2500 * time.Millisecond
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.RejoinGrace <= 0 {
		c.RejoinGrace = 10 * time.Second
	}
	return c
}

// member is one worker's master-side record.
type member struct {
	id       string
	taskAddr string
	state    comms.MemberState
	// client calls the worker over the connection it registered on, or
	// one the master dialled (Dial).
	client *taskClient
	// gen increments per registration; control handlers carry the gen
	// they served so a stale handler (replaced by a re-registration)
	// cannot kill the new incarnation.
	gen        int
	lastBeat   time.Time
	hbMisses   int64
	reconnects int64
	tasks      comms.WireStats
	// control counts the registration and heartbeat frames, both ways.
	control comms.ConnStats
	slots   int
}

// liveWorker is the placement view of a usable member: addr is its task
// address, which is where its peers fetch map output from; slots is what
// it counts for in a segment's width; gen is the registration the client
// belongs to.
type liveWorker struct {
	id     string
	gen    int
	addr   string
	client *taskClient
	slots  int
}

// membership is the master's lock-guarded cluster table. Joined and
// suspect members receive tasks; dead members are skipped until they
// re-register. A join, a rejoin and a loss are recorded in log, when the
// master has one (Master.SetTrace).
type membership struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members map[string]*member
	order   []string // registration order, for stable task placement
	version int      // bumped when the live set changes
	closed  bool     // by closeAll: registrations are refused
	log     *trace.Log
	clock   *vclock.Wall // stamps log's events
}

func newMembership() *membership {
	t := &membership{members: make(map[string]*member)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// register installs or replaces a worker reached through client, whose
// peers fetch from addr. It returns the new registration generation, or
// 0 once the table is closed.
func (t *membership) register(id, addr string, slots int, client *taskClient, control comms.ConnStats) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0
	}
	m, known := t.members[id]
	if !known {
		m = &member{id: id}
		t.members[id] = m
		t.order = append(t.order, id)
		t.note(trace.WorkerRegistered, "worker %s at %s", id, addr)
	} else {
		// Restart faster than detection: retire the previous
		// incarnation's connection before installing the new one.
		if m.client != nil {
			m.client.Close()
		}
		m.reconnects++
		t.note(trace.WorkerRejoined, "worker %s at %s", id, addr)
	}
	m.taskAddr = addr
	m.state = comms.Joined
	m.client = client
	m.control = control
	m.slots = max(slots, 1)
	m.lastBeat = time.Now()
	m.gen++
	t.version++
	t.cond.Broadcast()
	return m.gen
}

// current reports whether gen is still id's live registration.
func (t *membership) currentLocked(id string, gen int) (*member, bool) {
	m, ok := t.members[id]
	if !ok || m.gen != gen {
		return nil, false
	}
	return m, true
}

// beat records an answered heartbeat: the worker's ledger, and the
// control frames so far. A suspect worker answering again is restored to
// joined.
func (t *membership) beat(id string, gen int, tasks comms.WireStats, control comms.ConnStats) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok {
		return false
	}
	m.lastBeat = time.Now()
	m.tasks, m.control = tasks, control
	if m.state == comms.Suspect {
		m.state = comms.Joined
	}
	return true
}

// markSuspect records a missed heartbeat deadline, and the control
// frames so far. Every miss counts (s3_heartbeat_misses_total sums the
// counts); the joined → suspect state transition happens on the first.
// A suspect member stays live, so the version stands.
func (t *membership) markSuspect(id string, gen int, control comms.ConnStats) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok {
		return false
	}
	m.control = control
	m.hbMisses++
	if m.state == comms.Joined {
		m.state = comms.Suspect
	}
	return true
}

// markDead declares the worker's current incarnation dead and tears
// down its connection, so in-flight task calls fail over immediately.
func (t *membership) markDead(id string, gen int, reason error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok || m.state == comms.Dead {
		return false
	}
	m.state = comms.Dead
	if m.client != nil {
		m.client.Close()
	}
	detail := ""
	if reason != nil {
		detail = reason.Error()
	}
	t.version++
	t.note(trace.WorkerLost, "worker %s after %d missed heartbeat(s): %s", id, m.hbMisses, detail)
	t.cond.Broadcast()
	return true
}

// live returns the placement-ordered usable workers plus the table
// version the snapshot was taken at.
func (t *membership) live() (int, []liveWorker) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version, t.liveLocked()
}

func (t *membership) liveLocked() []liveWorker {
	out := make([]liveWorker, 0, len(t.order))
	for _, id := range t.order {
		m := t.members[id]
		if m.state != comms.Dead && m.client != nil {
			out = append(out, liveWorker{id: m.id, gen: m.gen, addr: m.taskAddr, client: m.client, slots: m.slots})
		}
	}
	return out
}

// waitLive blocks until at least n workers are live or ctx ends,
// returning the live snapshot either way.
func (t *membership) waitLive(ctx context.Context, n int) (int, []liveWorker) {
	// Broadcast under mu, so the end cannot fall between a check and the Wait.
	defer context.AfterFunc(ctx, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.cond.Broadcast()
	})()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if lw := t.liveLocked(); len(lw) >= n || ctx.Err() != nil {
			return t.version, lw
		}
		t.cond.Wait()
	}
}

// setTrace records the members already in the table as registered in
// log, then every later join, rejoin and loss, stamped by clock.
func (t *membership) setTrace(log *trace.Log, clock *vclock.Wall) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log, t.clock = log, clock
	for _, id := range t.order {
		t.note(trace.WorkerRegistered, "worker %s at %s", id, t.members[id].taskAddr)
	}
}

// note records one membership transition in the trace, if there is one
// (t.mu held).
func (t *membership) note(kind trace.Kind, format string, args ...any) {
	if t.log != nil {
		t.log.Addf(t.clock.Now(), kind, -1, -1, format, args...)
	}
}

// snapshot renders the whole table (including dead members) for the
// status server's GET /cluster.
func (t *membership) snapshot() []comms.WorkerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]comms.WorkerInfo, 0, len(t.order))
	for _, id := range t.order {
		m := t.members[id]
		out = append(out, comms.WorkerInfo{
			ID:              m.id,
			TaskAddr:        m.taskAddr,
			State:           m.state.String(),
			MapSlots:        m.slots,
			SinceHeartbeat:  time.Since(m.lastBeat).Seconds(),
			HeartbeatMisses: m.hbMisses,
			Reconnects:      m.reconnects,
			Control:         m.control,
			Tasks:           m.tasks,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// closeAll tears down every member's connection and refuses later
// registrations (master shutdown).
func (t *membership) closeAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var first error
	for _, m := range t.members {
		if m.client != nil {
			if err := m.client.Close(); err != nil && first == nil && m.state != comms.Dead {
				first = err
			}
			m.client = nil
		}
		m.state = comms.Dead
	}
	t.version++
	t.cond.Broadcast()
	return first
}

// ListenControl starts the master's control-plane listener: workers
// dial addr and register, and the connection each registers on carries
// every call to it, the heartbeats included. Returns the bound address.
// Call once, before driving rounds; Close stops it.
func (m *Master) ListenControl(addr string, cfg ControlConfig) (string, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("remote: control listener on %s: %w", addr, err)
	}
	m.mu.Lock()
	if m.ctl != nil {
		m.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("remote: control listener already running")
	}
	m.ctl = ln
	m.ctlCfg = cfg
	m.mu.Unlock()
	m.ctlWG.Add(1)
	go func() {
		defer m.ctlWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			m.ctlWG.Add(1)
			go func() {
				defer m.ctlWG.Done()
				m.serveControl(conn, cfg) // a refused connection is only closed
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// WaitForWorkers blocks until at least n workers are live, or fails
// after timeout. Masters call it between ListenControl and the first
// round so the segment plan sees a populated cluster.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, live := m.members.waitLive(ctx, n); len(live) < n {
		return fmt.Errorf("remote: %d of %d workers registered within %v", len(live), n, timeout)
	}
	return nil
}

// MapSlots reports the live workers and the map slots they advertise
// between them: how many blocks a segment should hold for one round to
// keep every processor of the cluster mapping.
func (m *Master) MapSlots() (workers, slots int) {
	_, live := m.members.live()
	for _, w := range live {
		slots += w.slots
	}
	return len(live), slots
}

// serveControl owns one worker's connection: the hellos, the register
// frame and its answer, then the heartbeat — a Stats call every 2/5 of
// cfg.SuspectAfter — that walks the member through joined → suspect → dead,
// until the connection breaks or a re-registration replaces it. It
// returns why it refused the connection, nil once a member's ends.
func (m *Master) serveControl(conn net.Conn, cfg ControlConfig) error {
	reg, addr, control, br, err := admit(conn, registerTimeout)
	if err != nil {
		conn.Close()
		return err
	}
	client := newTaskClient(conn, br, addr)
	gen := m.members.register(reg.ID, addr, reg.MapSlots, client, control)
	if gen == 0 {
		return client.Close() // the master is closing
	}
	// Replay derived files after the member is visible, so a concurrent
	// InstallFile broadcast cannot slip between snapshot and join — the
	// worst case is a harmless idempotent double install.
	if err := m.pushInstalled(liveWorker{id: reg.ID, client: client}); err != nil {
		m.members.markDead(reg.ID, gen, err)
		return nil
	}

	ticker := time.NewTicker(cfg.SuspectAfter * 2 / 5)
	defer ticker.Stop()
	ask := comms.FrameHeader + len((&StatsArgs{}).appendTo(nil))
	lastBeat := time.Now()
	for {
		select {
		case <-client.reading:
			// The worker process died or the network cut out. Either way
			// this incarnation is gone.
			m.members.markDead(reg.ID, gen, client.failure())
			return nil
		case <-ticker.C:
		}
		var st StatsReply
		control.FramesSent++
		control.BytesSent += int64(ask)
		err := callWithin(client, reg.ID, workerStats, &StatsArgs{}, &st, cfg.SuspectAfter)
		if _, late := err.(*TaskDeadlineError); late {
			if !m.members.markSuspect(reg.ID, gen, control) {
				return nil // replaced by a newer registration
			}
			if time.Since(lastBeat) >= cfg.DeadAfter {
				m.members.markDead(reg.ID, gen, fmt.Errorf("no heartbeat for %v", cfg.DeadAfter))
				return nil
			}
			continue
		}
		if err != nil {
			m.members.markDead(reg.ID, gen, err)
			return nil
		}
		lastBeat = time.Now()
		control.FramesRecv++
		control.BytesRecv += int64(comms.FrameHeader + len(st.appendTo(nil)))
		if !m.members.beat(reg.ID, gen, st.WireStats, control) {
			return nil // replaced
		}
	}
}

// admit reads a new connection's hello and registration within timeout,
// and answers it. It returns the registration, where the worker's peers
// reach it, the frames counted so far and the reader the worker's
// replies come through — or why the worker is refused, which the worker
// is told unless the wire itself is wrong.
func admit(conn net.Conn, timeout time.Duration) (reg registration, addr string, control comms.ConnStats, br *bufio.Reader, err error) {
	br = bufio.NewReader(conn)
	peer := conn.RemoteAddr().String()
	deadline := time.Now().Add(timeout)
	if err = comms.Handshake(conn, br, deadline); err != nil {
		return
	}
	conn.SetDeadline(deadline)
	id, kind, body, err := comms.ReadFrame(br, make([]byte, comms.FrameHeader), peer)
	if err != nil {
		return
	}
	if method(kind) != registerWorker {
		err = &comms.WireError{Peer: peer, Reason: fmt.Sprintf("a %v call where its registration belongs", method(kind))}
		return
	}
	control = comms.ConnStats{FramesRecv: 1, BytesRecv: int64(comms.FrameHeader + len(body))}
	refusal := decodeMessage(body, &reg)
	if refusal == nil && reg.ID == "" {
		refusal = fmt.Errorf("remote: a registration needs an id")
	}
	if refusal == nil {
		addr, refusal = peerAddr(reg.Addr, peer)
	}
	reply := comms.AppendHeader(nil, id, statusOK)
	if refusal != nil {
		reply = append(comms.AppendHeader(nil, id, statusError), refusal.Error()...)
	}
	comms.EndFrame(reply, peer)
	control.FramesSent, control.BytesSent = 1, int64(len(reply))
	// Answer before the member becomes visible: whoever sees the worker
	// live may at once tear this connection down (a master closed right
	// after its workers joined), and the worker must by then have its
	// answer.
	if _, err = conn.Write(reply); err == nil {
		err = refusal
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	return
}

// peerAddr is where a worker that bound listen is reached: listen
// itself, or, when the worker bound every interface, listen's port on
// the host its registration came from.
func peerAddr(listen, from string) (string, error) {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("remote: registration address %q: %w", listen, err)
	}
	if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
		if host, _, err = net.SplitHostPort(from); err != nil {
			return "", err
		}
	}
	return net.JoinHostPort(host, port), nil
}
