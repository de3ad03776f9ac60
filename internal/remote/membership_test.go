package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Fast control-plane timings for tests: heartbeats every 6ms (5ms on
// the workers' side), suspect after a call unanswered for 15ms, dead
// after 40ms, and a generous rejoin grace so workerless rounds wait for
// restarted workers instead of spinning.
var (
	testHeartbeat = 5 * time.Millisecond
	testCtlConfig = ControlConfig{
		SuspectAfter: 15 * time.Millisecond,
		DeadAfter:    40 * time.Millisecond,
		RejoinGrace:  2 * time.Second,
	}
)

// testStore builds a worker-local corpus copy.
func testStore(t *testing.T) *dfs.Store {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
		t.Fatal(err)
	}
	return store
}

// startRegisteredWorker serves a worker and registers it with the
// master's control plane under the given identity.
func startRegisteredWorker(t *testing.T, reg *Registry, ctlAddr, id string) *Worker {
	t.Helper()
	w := NewWorker(testStore(t), reg)
	if _, err := w.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(ctlAddr, RegisterOptions{ID: id, Heartbeat: testHeartbeat}); err != nil {
		t.Fatal(err)
	}
	return w
}

// startDynamicCluster boots a control-plane master plus n registered
// workers and waits until all of them are live.
func startDynamicCluster(t *testing.T, n int, jobs map[scheduler.JobID]JobRef, cfg ControlConfig) (*Master, []*Worker, string) {
	t.Helper()
	reg := NewStandardRegistry()
	master := NewMaster(jobs)
	ctlAddr, err := master.ListenControl("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	for i := 0; i < n; i++ {
		workers = append(workers, startRegisteredWorker(t, reg, ctlAddr, fmt.Sprintf("w%d", i)))
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		master.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return master, workers, ctlAddr
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceResults runs the same wordcount jobs with the sequential
// reference — the byte-identical yardstick for every failover scenario.
func referenceResults(t *testing.T, n int) map[scheduler.JobID]string {
	t.Helper()
	store := testStore(t)
	prefixes := workload.DistinctPrefixes(n)
	out := make(map[scheduler.JobID]string, n)
	for i := 0; i < n; i++ {
		ref, err := mapreduce.RunJob(store, workload.WordCountJob("ref", "corpus", prefixes[i], 2))
		if err != nil {
			t.Fatal(err)
		}
		out[scheduler.JobID(i+1)] = fmt.Sprint(ref.Output)
	}
	return out
}

// TestRegistrationHeartbeatLifecycle pins the control-plane happy path:
// register → joined → heartbeats acknowledged → snapshot carries
// identity and ledgers → death detection after a kill. A trace set after
// the workers registered still records their registrations.
func TestRegistrationHeartbeatLifecycle(t *testing.T) {
	master, workers, _ := startDynamicCluster(t, 2, wordcountRefs(1), testCtlConfig)
	spans := trace.MustNew(1 << 10)
	master.SetTrace(spans)

	if n, _ := master.MapSlots(); n != 2 {
		t.Fatalf("%d live workers, want 2", n)
	}
	regs, named := spans.OfKind(trace.WorkerRegistered), map[string]bool{}
	for _, ev := range regs {
		named[strings.Fields(ev.Detail)[1]] = true
	}
	if len(regs) != 2 || !named["w0"] || !named["w1"] {
		t.Fatalf("worker-registered events %v, want one for w0 and one for w1", regs)
	}

	// Heartbeats flow and are answered: the registration and three
	// answered calls or more, each way.
	waitFor(t, 2*time.Second, "answered heartbeats", func() bool {
		snap := master.ClusterSnapshot()
		return len(snap) == 2 && snap[0].Control.FramesRecv > 3 && snap[1].Control.FramesRecv > 3
	})

	// The snapshot carries identity, state, and connection ledgers.
	snap := master.ClusterSnapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d workers, want 2", len(snap))
	}
	for _, wi := range snap {
		if wi.State != comms.Joined.String() {
			t.Errorf("worker %s state %q, want joined", wi.ID, wi.State)
		}
		if wi.MapSlots != workers[0].slots {
			t.Errorf("worker %s shows %d map slots, want the %d it advertised", wi.ID, wi.MapSlots, workers[0].slots)
		}
		if wi.TaskAddr == "" {
			t.Errorf("worker %s has no task address", wi.ID)
		}
		if wi.Control.FramesRecv == 0 || wi.Control.FramesSent == 0 {
			t.Errorf("worker %s control ledger empty: %+v", wi.ID, wi.Control)
		}
	}

	if n, slots := master.MapSlots(); n != 2 || slots != 2*workers[0].slots {
		t.Errorf("MapSlots = %d slots on %d workers, want the %d of each of the two", slots, n, workers[0].slots)
	}

	// Kill one worker: its broken control connection (or heartbeat
	// silence) walks it to dead, observable in the trace and in the
	// live count.
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "death detection", func() bool {
		n, _ := master.MapSlots()
		return n == 1
	})
	if lost := spans.OfKind(trace.WorkerLost); len(lost) != 1 || !strings.Contains(lost[0].Detail, "worker w1 ") {
		t.Errorf("worker-lost events %v, want one for the killed worker", lost)
	}
}

// TestWorkerReconnectsAfterMasterRestart: a worker's control loop must
// survive losing the master and re-register with a replacement
// listening on the same address.
func TestWorkerReconnectsAfterMasterRestart(t *testing.T) {
	reg := NewStandardRegistry()
	master := NewMaster(nil)
	ctlAddr, err := master.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	w := startRegisteredWorker(t, reg, ctlAddr, "w0")
	defer w.Close()
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}

	// A replacement master reuses the control address; the worker's
	// backoff loop finds it and registers again.
	master2 := NewMaster(nil)
	if _, err := master2.ListenControl(ctlAddr, testCtlConfig); err != nil {
		t.Fatal(err)
	}
	defer master2.Close()
	if err := master2.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatalf("worker did not re-register with restarted master: %v", err)
	}
	// The master admits the worker before the worker processes the ack
	// that bumps its own counter, so poll rather than assert instantly.
	waitFor(t, 2*time.Second, "second registration ack", func() bool {
		return w.registrations.Load() >= 2
	})
}

// dynamicRun drives jobs through the runtime engine against a dynamic
// master, on the scheduler cmd/s3cluster deploys: core.NewMultiFile over
// corpus and lineitem plans, as drive() builds it.
func dynamicRun(t *testing.T, master *Master, njobs int, spans *trace.Log, hooks runtime.Hooks) *runtime.Result {
	t.Helper()
	master.SetTimeScale(1e6)
	corpus := testPlan(t)
	lineitem, err := dfs.MustStore(3, 1).AddMetaFile("lineitem", testBlocks, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := dfs.PlanSegments(lineitem, corpus.BlocksPerSegment())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewMultiFile([]*dfs.SegmentPlan{corpus, idle}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []runtime.Arrival
	for i := 1; i <= njobs; i++ {
		arrivals = append(arrivals, runtime.Arrival{
			Job: scheduler.JobMeta{ID: scheduler.JobID(i), File: "corpus"},
		})
	}
	res, err := runtime.RunTrace(sched, master, arrivals, runtime.Options{Spans: spans, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRollingRestartByteIdentical is the tentpole proof: kill a worker
// after the first round of a multi-round pass, bring up a replacement
// under the same identity mid-run, and require (a) the run completes,
// (b) outputs are byte-identical to the undisturbed local reference,
// (c) the trace shows the loss and the rejoin.
func TestRollingRestartByteIdentical(t *testing.T) {
	jobs := wordcountRefs(2)
	master, workers, ctlAddr := startDynamicCluster(t, 2, jobs, testCtlConfig)
	reg := NewStandardRegistry()
	spans := trace.MustNew(1 << 14)
	master.SetTrace(spans)

	// Hooks run on the engine's goroutine (this test's goroutine), so
	// rolling the worker synchronously inside the hook is race-free and
	// places the restart deterministically between rounds 1 and 2.
	var replacement *Worker
	rounds := 0
	hooks := runtime.Hooks{
		OnRoundDone: func(r scheduler.Round, _ vclock.Time, _ []scheduler.JobID) {
			rounds++
			if rounds != 1 {
				return
			}
			if err := workers[1].Close(); err != nil {
				t.Error(err)
				return
			}
			waitFor(t, 5*time.Second, "loss detection", func() bool {
				n, _ := master.MapSlots()
				return n == 1
			})
			replacement = startRegisteredWorker(t, reg, ctlAddr, "w1")
			waitFor(t, 5*time.Second, "replacement rejoin", func() bool {
				n, _ := master.MapSlots()
				return n == 2
			})
		},
	}
	res := dynamicRun(t, master, 2, spans, hooks)
	if replacement != nil {
		defer replacement.Close()
	}
	if rounds < 2 {
		t.Fatalf("run finished in %d rounds; the restart never happened mid-run", rounds)
	}
	if _, err := metrics.TET(res.Jobs); err != nil {
		t.Fatal(err)
	}

	// Byte-identical outputs despite the restart.
	want := referenceResults(t, 2)
	for id, ref := range want {
		if got := outputsOf(master)[id]; got != ref {
			t.Errorf("job %d: rolling restart changed results", id)
		}
	}

	// The membership churn reached the run's trace through the master's
	// table, which recorded the members it held when the trace was set.
	if len(spans.OfKind(trace.WorkerLost)) == 0 {
		t.Error("trace has no worker-lost event")
	}
	if len(spans.OfKind(trace.WorkerRejoined)) == 0 {
		t.Error("trace has no worker-rejoined event")
	}
	if len(spans.OfKind(trace.WorkerRegistered)) < 2 {
		t.Error("trace missing initial worker-registered events")
	}
}

// TestFullOutageRequeuesUntilRejoin: with every worker dead, rounds are
// reported lost and requeued; when a worker comes back the requeued
// round completes and results are still byte-identical.
func TestFullOutageRequeuesUntilRejoin(t *testing.T) {
	// Short rejoin grace so workerless rounds are actually lost and
	// requeued (rather than blocking until the restart lands).
	cfg := testCtlConfig
	cfg.RejoinGrace = 20 * time.Millisecond
	jobs := wordcountRefs(1)
	master, workers, ctlAddr := startDynamicCluster(t, 1, jobs, cfg)
	reg := NewStandardRegistry()

	// The replacement is built on this goroutine (test helpers may call
	// t.Fatal) but served and registered from a timer goroutine, so the
	// engine spends a few requeue cycles with zero live workers first.
	replacement := NewWorker(testStore(t), reg)
	var repErr error
	var repOnce sync.Once
	var repDone = make(chan struct{})
	startReplacement := func() {
		repOnce.Do(func() {
			defer close(repDone)
			if _, err := replacement.Serve("127.0.0.1:0"); err != nil {
				repErr = err
				return
			}
			repErr = replacement.Register(ctlAddr, RegisterOptions{ID: "w0", Heartbeat: testHeartbeat})
		})
	}
	defer replacement.Close()

	rounds := 0
	hooks := runtime.Hooks{
		OnRoundDone: func(r scheduler.Round, _ vclock.Time, _ []scheduler.JobID) {
			rounds++
			if rounds != 1 {
				return
			}
			if err := workers[0].Close(); err != nil {
				t.Error(err)
				return
			}
			waitFor(t, 5*time.Second, "loss detection", func() bool {
				n, _ := master.MapSlots()
				return n == 0
			})
			time.AfterFunc(150*time.Millisecond, startReplacement)
		},
	}
	res := dynamicRun(t, master, 1, nil, hooks)
	<-repDone
	if repErr != nil {
		t.Fatalf("replacement worker: %v", repErr)
	}
	if _, err := metrics.TET(res.Jobs); err != nil {
		t.Fatal(err)
	}
	if fs := res.Faults; fs.RequeuedRounds == 0 {
		t.Error("outage produced no requeued rounds")
	}
	want := referenceResults(t, 1)
	if got := outputsOf(master)[1]; got != want[1] {
		t.Error("outage + requeue changed results")
	}
}

// A registered worker holds one connection to the master, one it
// dialled: after rounds with reduces on a two-worker StartLocal cluster,
// every member's client rides a connection the control listener
// accepted, and each worker's listener has accepted its peer's fetch
// connection and nothing else.
func TestOneConnectionPerWorker(t *testing.T) {
	l, err := StartLocal(wordcountRefs(2), NewStandardRegistry(), testStore(t), testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dynamicRun(t, l.Master, 2, nil, runtime.Hooks{})

	l.mu.Lock()
	ctl := l.ctl.Addr().String()
	l.mu.Unlock()
	l.members.mu.Lock()
	for id, m := range l.members.members {
		if local := m.client.conn.LocalAddr().String(); local != ctl {
			t.Errorf("member %s: the master reaches it from %s, not over the connection its control listener %s accepted", id, local, ctl)
		}
	}
	l.members.mu.Unlock()

	dialled := func(w *Worker) map[string]bool { // the local ends of w's peer connections
		w.mu.Lock()
		defer w.mu.Unlock()
		out := make(map[string]bool)
		for _, pc := range w.peers {
			out[pc.client.conn.LocalAddr().String()] = true
		}
		return out
	}
	for i, w := range l.Workers {
		peer := dialled(l.Workers[1-i])
		w.mu.Lock()
		if len(w.conns) != 1 {
			t.Errorf("worker %d accepted %d connections, want its peer's one", i, len(w.conns))
		}
		for conn := range w.conns {
			if from := conn.RemoteAddr().String(); !peer[from] {
				t.Errorf("worker %d accepted a connection from %s, which is not its peer's (%v)", i, from, peer)
			}
		}
		w.mu.Unlock()
	}
}

// The master counts a member's registration and heartbeat frames both
// ways, to the byte: the register frame in and the status reply out,
// then a request out for every heartbeat and a reply in for every one
// answered in time.
func TestControlLedgerCountsBothDirections(t *testing.T) {
	m := NewMaster(nil)
	defer m.Close()
	ctl, err := m.ListenControl("127.0.0.1:0", ControlConfig{SuspectAfter: 25 * time.Millisecond, DeadAfter: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(testStore(t), NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Register(ctl, RegisterOptions{ID: "w0", Heartbeat: time.Second}); err != nil {
		t.Fatal(err)
	}
	var info comms.WorkerInfo
	waitFor(t, 5*time.Second, "three answered heartbeats", func() bool {
		if snap := m.ClusterSnapshot(); len(snap) == 1 {
			info = snap[0]
		}
		return info.Control.FramesRecv > 3
	})
	// An idle worker's ledger is all zeros, so every answer is as long.
	c, reg, ask, answer := info.Control, &registration{ID: "w0", Addr: addr, MapSlots: w.slots}, &StatsArgs{}, &StatsReply{}
	answered, asked := c.FramesRecv-1, c.FramesRecv-1+info.HeartbeatMisses
	want := comms.ConnStats{
		FramesRecv: 1 + answered,
		FramesSent: 1 + asked,
		BytesRecv:  int64(comms.FrameHeader+len(reg.appendTo(nil))) + answered*int64(comms.FrameHeader+len(answer.appendTo(nil))),
		BytesSent:  comms.FrameHeader + asked*int64(comms.FrameHeader+len(ask.appendTo(nil))),
	}
	if c != want {
		t.Errorf("control ledger %+v, want %+v", c, want)
	}
}

// A worker ends its session once its master has been silent for five
// heartbeats: here a master that takes the registration, then never
// calls.
func TestWorkerLeavesASilentMaster(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	admitted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			if _, _, _, _, err = admit(conn, time.Second); err != nil {
				t.Errorf("admitting the worker: %v", err)
			}
		}
		admitted <- conn
	}()
	w := NewWorker(testStore(t), NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const hb = 20 * time.Millisecond
	began := time.Now()
	registered, err := w.session(context.Background(), ln.Addr().String(), &registration{ID: "w0", Addr: addr, MapSlots: 1}, hb)
	took := time.Since(began)
	if conn := <-admitted; conn != nil {
		conn.Close()
	}
	var ne net.Error
	if !registered || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("session: registered %v, %v; want a registered session ended by a timeout", registered, err)
	}
	if took < 5*hb || took > 5*time.Second {
		t.Errorf("the session ended after %v of silence, want 5 × %v", took, hb)
	}
}

// Close stops a worker that is re-dialling a master nobody runs.
func TestCloseStopsRedialing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	ln.Close()
	w := NewWorker(testStore(t), NewStandardRegistry())
	if _, err := w.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(gone, RegisterOptions{ID: "w0", Heartbeat: time.Second}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // two dials, waiting 200 ms for the third
	began := time.Now()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > 100*time.Millisecond {
		t.Errorf("Close took %v while the worker waited to re-dial", took)
	}
	if n := w.registrations.Load(); n != 0 {
		t.Errorf("%d registrations with no master", n)
	}
}

// Close ends a registered worker's live session at once, not after the
// five heartbeats of silence that would end it otherwise (the master
// calls every 2/5 of a second, so that silence never comes).
func TestCloseStopsALiveSession(t *testing.T) {
	m := NewMaster(nil)
	defer m.Close()
	ctl, err := m.ListenControl("127.0.0.1:0", ControlConfig{SuspectAfter: time.Second, DeadAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(testStore(t), NewStandardRegistry())
	if _, err := w.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(ctl, RegisterOptions{ID: "w0", Heartbeat: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still waits on the session after a second")
	}
}

// A joined → suspect → joined round trip leaves the live set as it was,
// so it leaves the version too: failover re-walks the workers only when
// the set changed.
func TestSuspectRoundTripKeepsTheVersion(t *testing.T) {
	tbl := newMembership()
	gen := tbl.register("w0", "127.0.0.1:1", 1, &taskClient{}, comms.ConnStats{})
	ver, _ := tbl.live()
	if !tbl.markSuspect("w0", gen, comms.ConnStats{}) {
		t.Fatal("markSuspect refused the current registration")
	}
	if now, live := tbl.live(); now != ver || len(live) != 1 {
		t.Errorf("suspect: version %d with %d live, want %d with 1", now, len(live), ver)
	}
	if !tbl.beat("w0", gen, comms.WireStats{}, comms.ConnStats{}) {
		t.Fatal("beat refused the current registration")
	}
	if now, _ := tbl.live(); now != ver {
		t.Errorf("joined again: version %d, want %d", now, ver)
	}
	if got := tbl.snapshot()[0]; got.State != "joined" || got.HeartbeatMisses != 1 {
		t.Errorf("member %+v, want joined with one miss", got)
	}
}

// waitLive ends at its context's deadline when no worker comes, and at
// a registration when one does, however far off the deadline is.
func TestWaitLiveEndsAtItsDeadlineOrAJoin(t *testing.T) {
	tbl := newMembership()
	wait := func(ctx context.Context) (ver int, live []liveWorker) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ver, live = tbl.waitLive(ctx, 1)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waitLive still waits after 5s")
		}
		return ver, live
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	began := time.Now()
	if _, live := wait(ctx); len(live) != 0 {
		t.Fatalf("%d live in an empty table", len(live))
	}
	if took := time.Since(began); took < 30*time.Millisecond {
		t.Errorf("an empty table's wait took %v, want its 30ms deadline", took)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	time.AfterFunc(10*time.Millisecond, func() { tbl.register("w0", "127.0.0.1:1", 1, &taskClient{}, comms.ConnStats{}) })
	ver, live := wait(ctx)
	if len(live) != 1 || live[0].id != "w0" || ver == 0 || ctx.Err() != nil {
		t.Errorf("waiting for a join: version %d, live %+v, context %v", ver, live, ctx.Err())
	}
}

// A worker re-dials after Heartbeat/10, doubling up to 5 × Heartbeat: at
// the default heartbeat, 100 ms to 5 s.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{10, 20, 40, 80, 160, 320, 500, 500}
	for i, w := range want {
		if got := redialDelay(100*time.Millisecond, i); got != w*time.Millisecond {
			t.Errorf("redialDelay(100ms, %d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if first, last := redialDelay(DefaultHeartbeat, 0), redialDelay(DefaultHeartbeat, 100); first != 100*time.Millisecond || last != 5*time.Second {
		t.Errorf("at the default heartbeat: %v first, %v at most; want 100ms and 5s", first, last)
	}
}
