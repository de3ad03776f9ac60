package remote

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"s3sched/internal/comms"
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
	// is closed, in-flight tasks fail over, and the engine sees a
	// worker-lost event. Must exceed SuspectAfter.
	DeadAfter time.Duration
	// RegisterTimeout bounds how long an accepted connection may take
	// over its hello and registration frame.
	RegisterTimeout time.Duration
	// RejoinGrace is how long a round with zero live workers blocks
	// waiting for a registration before the round is declared lost and
	// requeued. The requeue loop re-enters the wait, so a full-cluster
	// restart has MaxRequeues × RejoinGrace to bring one worker back.
	RejoinGrace time.Duration
}

// DefaultControlConfig calls every worker at DefaultHeartbeat (1s).
var DefaultControlConfig = ControlConfig{
	SuspectAfter:    2500 * time.Millisecond,
	DeadAfter:       5 * time.Second,
	RegisterTimeout: 10 * time.Second,
	RejoinGrace:     10 * time.Second,
}

func (c ControlConfig) withDefaults() ControlConfig {
	d := DefaultControlConfig
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = d.SuspectAfter
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.RegisterTimeout <= 0 {
		c.RegisterTimeout = d.RegisterTimeout
	}
	if c.RejoinGrace <= 0 {
		c.RejoinGrace = d.RejoinGrace
	}
	return c
}

// member is one worker's master-side record.
type member struct {
	id       string
	taskAddr string
	static   bool
	state    comms.MemberState
	// client calls the worker over the connection it registered on, or,
	// for a static member, one the master dialled.
	client *taskClient
	// gen increments per registration; control handlers carry the gen
	// they served so a stale handler (replaced by a re-registration)
	// cannot kill the new incarnation.
	gen        int
	joined     time.Time
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
// re-register. Every transition appends a MemberEvent for the runtime
// engine to drain.
type membership struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members map[string]*member
	order   []string // registration order, for stable task placement
	events  []comms.MemberEvent
	version int  // bumped on any change affecting the live set
	closed  bool // by closeAll: registrations are refused
}

func newMembership() *membership {
	t := &membership{members: make(map[string]*member)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// addStatic installs a boot-time worker that never heartbeats (the
// Dial path). Static members are permanently non-dead:
// failover still skips them per-call when their connection breaks.
func (t *membership) addStatic(id, addr string, client *taskClient) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.members[id] = &member{
		id: id, taskAddr: addr, static: true,
		state: comms.Joined, client: client, joined: time.Now(),
	}
	t.order = append(t.order, id)
	t.version++
	t.events = append(t.events, comms.MemberEvent{
		Worker: id, Kind: comms.MemberRegistered, Detail: addr,
	})
	t.cond.Broadcast()
}

// register installs or replaces a dynamic worker reached through
// client, whose peers fetch from addr. It returns the new registration
// generation, or 0 once the table is closed.
func (t *membership) register(id, addr string, slots int, client *taskClient, control comms.ConnStats) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0
	}
	m, known := t.members[id]
	if !known {
		m = &member{id: id, joined: time.Now()}
		t.members[id] = m
		t.order = append(t.order, id)
		t.events = append(t.events, comms.MemberEvent{
			Worker: id, Kind: comms.MemberRegistered, Detail: addr,
		})
	} else {
		// Restart faster than detection: retire the previous
		// incarnation's connection before installing the new one.
		if m.client != nil {
			m.client.Close()
		}
		m.reconnects++
		t.events = append(t.events, comms.MemberEvent{
			Worker: id, Kind: comms.MemberRejoined, Detail: addr,
		})
	}
	m.taskAddr = addr
	m.state = comms.Joined
	m.client = client
	m.control = control
	m.slots = slots
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
		t.version++
		t.events = append(t.events, comms.MemberEvent{
			Worker: id, Kind: comms.MemberRestored,
		})
		t.cond.Broadcast()
	}
	return true
}

// markSuspect records a missed heartbeat deadline, and the control
// frames so far. Every miss emits a MemberSuspect event (feeding the
// s3_heartbeat_misses_total counter); the joined → suspect state
// transition happens on the first.
func (t *membership) markSuspect(id string, gen int, control comms.ConnStats) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok {
		return false
	}
	m.control = control
	m.hbMisses++
	t.events = append(t.events, comms.MemberEvent{
		Worker: id, Kind: comms.MemberSuspect, Misses: int(m.hbMisses),
	})
	if m.state == comms.Joined {
		m.state = comms.Suspect
		t.version++
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
	t.events = append(t.events, comms.MemberEvent{
		Worker: id, Kind: comms.MemberLost, Misses: int(m.hbMisses), Detail: detail,
	})
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
			out = append(out, liveWorker{id: m.id, gen: m.gen, addr: m.taskAddr, client: m.client, slots: m.mapSlots()})
		}
	}
	return out
}

// waitLive blocks until at least n workers are live or the grace
// period lapses, returning the live snapshot either way.
func (t *membership) waitLive(n int, grace time.Duration) (int, []liveWorker) {
	deadline := time.Now().Add(grace)
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		lw, remain := t.liveLocked(), time.Until(deadline)
		if len(lw) >= n || remain <= 0 {
			return t.version, lw
		}
		// sync.Cond has no timed wait; poll on a short timer while
		// broadcasts short-circuit the common (registration) case.
		waker := time.AfterFunc(min(remain, 20*time.Millisecond), t.cond.Broadcast)
		t.cond.Wait()
		waker.Stop()
	}
}

// takeEvents drains the pending membership deltas in order.
func (t *membership) takeEvents() []comms.MemberEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.events
	t.events = nil
	return ev
}

// mapSlots is what m counts for in a segment's width: what it advertised,
// one if that is nothing (a static member).
func (m *member) mapSlots() int { return max(m.slots, 1) }

// snapshot renders the whole table (including dead members) for the
// status server's GET /cluster.
func (t *membership) snapshot() []comms.WorkerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]comms.WorkerInfo, 0, len(t.order))
	for _, id := range t.order {
		m := t.members[id]
		info := comms.WorkerInfo{
			ID:              m.id,
			TaskAddr:        m.taskAddr,
			State:           m.state.String(),
			Static:          m.static,
			MapSlots:        m.mapSlots(),
			HeartbeatMisses: m.hbMisses,
			Reconnects:      m.reconnects,
			Tasks:           m.tasks,
		}
		if !m.static {
			since := m.lastBeat
			if since.IsZero() {
				since = m.joined
			}
			info.SinceHeartbeat = time.Since(since).Seconds()
			info.Control = m.control
		}
		out = append(out, info)
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
	m.hasCtl.Store(true)
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
	if _, live := m.members.waitLive(n, timeout); len(live) < n {
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
	reg, addr, control, br, err := admit(conn, cfg.RegisterTimeout)
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
