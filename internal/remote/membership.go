package remote

import (
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
	// SuspectAfter is silence that marks a worker suspect (one missed
	// heartbeat deadline). Suspect workers still receive tasks.
	SuspectAfter time.Duration
	// DeadAfter is silence that declares a worker dead: its task client
	// is closed, in-flight tasks fail over, and the engine sees a
	// worker-lost event. Must exceed SuspectAfter.
	DeadAfter time.Duration
	// RegisterTimeout bounds how long an accepted control connection
	// may sit silent before sending its registration frame.
	RegisterTimeout time.Duration
	// RejoinGrace is how long a round with zero live workers blocks
	// waiting for a registration before the round is declared lost and
	// requeued. The requeue loop re-enters the wait, so a full-cluster
	// restart has MaxRequeues × RejoinGrace to bring one worker back.
	RejoinGrace time.Duration
}

// DefaultControlConfig pairs with workers heartbeating at
// DefaultHeartbeat (1s).
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
	client   *taskClient
	conn     *comms.Conn // control connection; nil for static members
	// gen increments per registration; control handlers carry the gen
	// they served so a stale handler (replaced by a re-registration)
	// cannot kill the new incarnation.
	gen        int
	joined     time.Time
	lastBeat   time.Time
	hbMisses   int64
	reconnects int64
	tasks      comms.WireStats
	caps       comms.Capabilities
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
	version int // bumped on any change affecting the live set
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

// register installs or replaces a dynamic worker. It returns the new
// registration generation.
func (t *membership) register(reg *comms.RegisterFrame, conn *comms.Conn, client *taskClient) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, known := t.members[reg.ID]
	if !known {
		m = &member{id: reg.ID, joined: time.Now()}
		t.members[reg.ID] = m
		t.order = append(t.order, reg.ID)
		t.events = append(t.events, comms.MemberEvent{
			Worker: reg.ID, Kind: comms.MemberRegistered, Detail: reg.TaskAddr,
		})
	} else {
		// Restart faster than detection: retire the previous
		// incarnation's connections before installing the new ones.
		if m.conn != nil {
			m.conn.Close()
		}
		if m.client != nil {
			m.client.Close()
		}
		m.reconnects++
		t.events = append(t.events, comms.MemberEvent{
			Worker: reg.ID, Kind: comms.MemberRejoined, Detail: reg.TaskAddr,
		})
	}
	m.taskAddr = reg.TaskAddr
	m.state = comms.Joined
	m.client = client
	m.conn = conn
	m.caps = reg.Capabilities
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

// beat records a heartbeat. A suspect worker heartbeating again is
// restored to joined.
func (t *membership) beat(id string, gen int, hb *comms.HeartbeatFrame) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok {
		return false
	}
	m.lastBeat = time.Now()
	m.tasks = hb.Stats
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

// markSuspect records a missed heartbeat deadline. Every miss emits a
// MemberSuspect event (feeding the s3_heartbeat_misses_total counter);
// the joined → suspect state transition happens on the first.
func (t *membership) markSuspect(id string, gen int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok {
		return false
	}
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
// down its connections, so in-flight task calls fail over immediately.
func (t *membership) markDead(id string, gen int, reason error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.currentLocked(id, gen)
	if !ok || m.state == comms.Dead {
		return false
	}
	m.state = comms.Dead
	if m.conn != nil {
		m.conn.Close()
	}
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
// one if that is nothing (an older worker, a static member).
func (m *member) mapSlots() int { return max(m.caps.MapSlots, 1) }

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
			if m.conn != nil {
				info.Control = m.conn.Stats()
			}
		}
		out = append(out, info)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// closeAll tears down every member's connections (master shutdown).
func (t *membership) closeAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, m := range t.members {
		if m.conn != nil {
			m.conn.Close()
			m.conn = nil
		}
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
// dial addr, register, and heartbeat. Returns the bound address. Call
// once, before driving rounds; Close stops it.
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
				m.serveControl(comms.NewConn(conn), cfg)
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

// serveControl owns one worker's control connection: registration
// handshake, dial-back of the task client, then the heartbeat deadline
// loop that walks the worker through joined → suspect → dead.
func (m *Master) serveControl(conn *comms.Conn, cfg ControlConfig) {
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(cfg.RegisterTimeout)); err != nil {
		return
	}
	env, err := conn.Recv()
	if err != nil || env.Kind != comms.FrameRegister || env.Register == nil {
		return // not a protocol peer; drop silently
	}
	reg := env.Register
	if reg.ID == "" || reg.TaskAddr == "" {
		conn.Send(comms.Envelope{Kind: comms.FrameAck, Ack: &comms.AckFrame{
			OK: false, Msg: "registration needs an id and a task address",
		}})
		return
	}
	// Dial back the worker's task server before admitting it: a worker
	// the master cannot reach is useless to the round loop.
	client, err := dialTask(reg.TaskAddr, cfg.RegisterTimeout)
	if err != nil {
		conn.Send(comms.Envelope{Kind: comms.FrameAck, Ack: &comms.AckFrame{
			OK: false, Msg: fmt.Sprintf("dialing task address %s: %v", reg.TaskAddr, err),
		}})
		return
	}
	// Ack before the member becomes visible: whoever sees the worker live
	// may at once tear this session down (a master closed right after its
	// workers joined), and the worker must by then have its answer.
	if err := conn.Send(comms.Envelope{Kind: comms.FrameAck, Ack: &comms.AckFrame{OK: true}}); err != nil {
		client.Close()
		return
	}
	gen := m.members.register(reg, conn, client)
	// Replay derived files after the member is visible, so a concurrent
	// InstallFile broadcast cannot slip between snapshot and join — the
	// worst case is a harmless idempotent double install.
	if err := m.pushInstalled(liveWorker{id: reg.ID, client: client}); err != nil {
		m.members.markDead(reg.ID, gen, err)
		return
	}

	lastBeat := time.Now()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(cfg.SuspectAfter)); err != nil {
			m.members.markDead(reg.ID, gen, err)
			return
		}
		env, err := conn.Recv()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if !m.members.markSuspect(reg.ID, gen) {
					return // replaced by a newer registration
				}
				if time.Since(lastBeat) >= cfg.DeadAfter {
					m.members.markDead(reg.ID, gen, fmt.Errorf("no heartbeat for %v", cfg.DeadAfter))
					return
				}
				continue
			}
			// Connection broke: the worker process died or the network
			// cut out. Either way this incarnation is gone.
			m.members.markDead(reg.ID, gen, err)
			return
		}
		if env.Kind != comms.FrameHeartbeat || env.Heartbeat == nil {
			continue // tolerate unknown frames from newer workers
		}
		lastBeat = time.Now()
		if !m.members.beat(reg.ID, gen, env.Heartbeat) {
			return // replaced
		}
		if err := conn.Send(comms.Envelope{Kind: comms.FrameAck, Ack: &comms.AckFrame{OK: true}}); err != nil {
			m.members.markDead(reg.ID, gen, err)
			return
		}
	}
}
