package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	s3runtime "s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// The hazards a worker-side shuffle opens, each closed by a test below.
// Outputs are compared with the sequential reference (the local engine,
// referenceResults) and, where a test disturbs a run, with the same jobs
// through an undisturbed cluster.

// serveWorkers serves n fresh workers over the test corpus and returns
// them with their task addresses. Where wrap returns a double for worker
// i, that is what the address serves.
func serveWorkers(t *testing.T, n int, wrap func(i int, w *Worker) any) ([]*Worker, []string) {
	t.Helper()
	var (
		workers []*Worker
		addrs   []string
	)
	for i := 0; i < n; i++ {
		w := NewWorker(testStore(t), NewStandardRegistry())
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		if wrap != nil {
			if double := wrap(i, w); double != nil {
				addrs = append(addrs, serveStub(t, double))
				continue
			}
		}
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	return workers, addrs
}

// taskLog is a real worker that records the map tasks it served: each
// one's blocks and how many jobs it named.
type taskLog struct {
	*Worker
	mu   sync.Mutex
	maps []servedMap
}

type servedMap struct {
	blocks []int
	jobs   int
}

func (l *taskLog) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	err := l.Worker.ExecMap(args, reply)
	if err == nil {
		l.mu.Lock()
		l.maps = append(l.maps, servedMap{args.Blocks, len(args.Jobs)})
		l.mu.Unlock()
	}
	return err
}

// served is a copy of what l recorded.
func (l *taskLog) served() []servedMap {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.maps)
}

// recordInto is a serveWorkers wrap that serves each worker in which
// through a taskLog, kept in logs; the others serve themselves, so
// Close stops them.
func recordInto(logs []*taskLog, which ...int) func(int, *Worker) any {
	return func(i int, w *Worker) any {
		if !slices.Contains(which, i) {
			return nil
		}
		logs[i] = &taskLog{Worker: w}
		return logs[i]
	}
}

// dialT dials a master that the test's cleanup closes.
func dialT(t *testing.T, addrs []string, jobs map[scheduler.JobID]JobRef) *Master {
	t.Helper()
	m, err := Dial(addrs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// submitAll queues jobs 1..n on a fresh scheduler over the test plan.
// deployedSched is the scheduler cmd/s3cluster journals and recovers,
// over the test corpus.
func deployedSched(t *testing.T) *core.MultiFile {
	t.Helper()
	m, err := core.NewMultiFile([]*dfs.SegmentPlan{testPlan(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func submitAll(t *testing.T, n int) *core.MultiFile {
	t.Helper()
	s := deployedSched(t)
	for id := 1; id <= n; id++ {
		if err := s.Submit(scheduler.JobMeta{ID: scheduler.JobID(id), File: "corpus"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkOutputs holds m's results for jobs 1..n to the sequential
// reference and to an undisturbed two-worker run.
func checkOutputs(t *testing.T, m *Master, n int) {
	t.Helper()
	plain, _ := startCluster(t, 2, wordcountRefs(n))
	driveRounds(t, submitAll(t, n), plain, -1)
	got, undisturbed, want := outputsOf(m), outputsOf(plain), referenceResults(t, n)
	for id := scheduler.JobID(1); id <= scheduler.JobID(n); id++ {
		if got[id] == "" || got[id] != want[id] || got[id] != undisturbed[id] {
			t.Errorf("job %d: %d bytes of output, the reference has %d and the undisturbed run %d", id, len(got[id]), len(want[id]), len(undisturbed[id]))
		}
	}
}

// repairs is what ShuffleRepairs counts, for a test to compare.
type repairs struct{ RepairMaps, ReduceRetries int64 }

func repairsOf(m *Master) repairs {
	maps, retries := m.ShuffleRepairs()
	return repairs{maps, retries}
}

// stashedJobs lists what w holds, by stash key.
func stashedJobs(w *Worker) map[stashJob]int {
	w.stash.mu.Lock()
	defer w.stash.mu.Unlock()
	out := make(map[stashJob]int)
	for job, blocks := range w.stash.jobs {
		out[job] = len(blocks)
	}
	return out
}

// (a) Stale stash. A master without a journal dies with a job half
// mapped; the next one numbers its jobs from 1 again, runs different
// programs under those ids, and places blocks differently (it lists the
// workers the other way round), so the dead master's runs for "job 2"
// sit exactly where a reducer would pick them up first. The epoch keeps
// them apart, and the first task of the new master sweeps them out.
func TestStaleStashOfAnEarlierMaster(t *testing.T) {
	workers, addrs := serveWorkers(t, 2, nil)
	refs := wordcountRefs(2)

	first := dialT(t, addrs, refs)
	sched := submitAll(t, 1)
	driveRounds(t, sched, first, -1)
	if err := sched.Submit(scheduler.JobMeta{ID: 2, File: "corpus"}, 0); err != nil {
		t.Fatal(err)
	}
	driveRounds(t, sched, first, 2) // half of job 2, and then the master is gone
	if got := outputsOf(first)[1]; got == "" || got != referenceResults(t, 1)[1] {
		t.Error("the first master's finished job differs from the reference")
	}
	first.Close()
	for i, w := range workers {
		if held := stashedJobs(w); held[stashJob{first.epoch, 2}] == 0 {
			t.Fatalf("worker %d holds %v: the dead master's half-mapped job should still be there", i, held)
		}
	}

	swapped := map[scheduler.JobID]JobRef{1: refs[2], 2: refs[1]}
	second := dialT(t, []string{addrs[1], addrs[0]}, swapped)
	if second.epoch <= first.epoch {
		t.Fatalf("epochs %d then %d: a later master must have a later one", first.epoch, second.epoch)
	}
	driveRounds(t, submitAll(t, 2), second, -1)
	want := referenceResults(t, 2)
	if got := outputsOf(second); got[1] != want[2] || got[2] != want[1] {
		t.Error("the second master's jobs, numbered like the first one's, differ from the reference")
	}
	if ss := repairsOf(second); ss.RepairMaps != 0 {
		t.Errorf("%d repair maps in a run in which nothing failed", ss.RepairMaps)
	}
	for i, w := range workers {
		for job := range stashedJobs(w) {
			if job.epoch != second.epoch {
				t.Errorf("worker %d still holds %+v of an earlier master", i, job)
			}
		}
	}
}

// (b) Recovered master. A master that goes back on its predecessor's
// epoch — what the journal's master-epoch record is for — finds the map
// output of the jobs it resumes where the predecessor's tasks left it:
// no block is mapped twice. One that does not (no journal) finds nothing,
// maps the resumed job's earlier segments again at reduce time, and
// arrives at the same bytes.
func TestRecoveredMasterFindsItsStash(t *testing.T) {
	for _, sameEpoch := range []bool{true, false} {
		workers, addrs := serveWorkers(t, 2, nil)
		crashed := dialT(t, addrs, wordcountRefs(1))
		sched := submitAll(t, 1)
		driveRounds(t, sched, crashed, 2) // two of four segments
		snap, err := sched.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		crashed.Close()

		recovered := dialT(t, addrs, wordcountRefs(1))
		if sameEpoch {
			recovered.RestoreEpoch(crashed.Epoch())
		}
		resumed := deployedSched(t)
		if err := resumed.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
		if done := driveRounds(t, resumed, recovered, -1); len(done) != 1 || done[0] != 1 {
			t.Fatalf("same epoch %v: the resumed run completed %v, want [1]", sameEpoch, done)
		}
		checkOutputs(t, recovered, 1)
		ss := repairsOf(recovered)
		var tasks int64
		for _, w := range workers {
			tasks += w.wireStats().MapTasks
		}
		if sameEpoch && (ss.RepairMaps != 0 || ss.ReduceRetries != 0 || tasks != testBlocks) {
			t.Errorf("recovered on the same epoch: %+v and %d map tasks, want no repair and each of %d blocks mapped once", ss, tasks, testBlocks)
		}
		// Six blocks were mapped before the crash, all of them lost to a
		// master on another epoch.
		if !sameEpoch && (ss.RepairMaps != testBlocks/2 || tasks != testBlocks+testBlocks/2) {
			t.Errorf("recovered on a new epoch: %+v and %d map tasks, want the %d blocks behind the snapshot mapped again", ss, tasks, testBlocks/2)
		}
	}
}

// gatedWorker is a real worker whose first map task naming one block waits
// for the gate — long enough for the master to give up on it — and then
// runs all the same.
type gatedWorker struct {
	*Worker
	block int
	once  sync.Once
	gate  chan struct{}
}

func (g *gatedWorker) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	if slices.Contains(args.Blocks, g.block) {
		g.once.Do(func() { <-g.gate })
	}
	return g.Worker.ExecMap(args, reply)
}

// (c) Late duplicate. A map task abandoned at the deadline — worker 0's
// share of the first segment, blocks 0 and 2 in one message — moves as a
// whole to the next worker, and then finishes on the first one too: two
// workers hold both blocks under one key each. Each reducer meets both
// copies and keeps one.
func TestLateDuplicateMapIsKeptOnce(t *testing.T) {
	gate := make(chan struct{})
	workers, addrs := serveWorkers(t, 2, func(i int, w *Worker) any {
		if i == 0 { // block 0's home
			return &gatedWorker{Worker: w, block: 0, gate: gate}
		}
		return nil
	})
	m := dialT(t, addrs, wordcountRefs(1))
	m.SetTaskDeadline(100 * time.Millisecond)
	sched := submitAll(t, 1)
	driveRounds(t, sched, m, 1)
	if failovers(m) != 1 {
		t.Fatalf("%d failovers, want the group of block 0 moved once, as one task", failovers(m))
	}
	close(gate)
	job := stashJob{m.epoch, 1}
	waitFor(t, 5*time.Second, "the abandoned map task to finish late", func() bool {
		return stashedJobs(workers[0])[job] == 2 // blocks 0 and 2
	})
	if held := stashedJobs(workers[1])[job]; held != 3 { // block 1, and 0 and 2 by failover, once each
		t.Fatalf("the failover target holds %d blocks, want 3", held)
	}
	driveRounds(t, sched, m, -1)
	checkOutputs(t, m, 1)
	if ss := repairsOf(m); ss.RepairMaps != 0 {
		t.Errorf("%d repair maps: a duplicate is not a loss", ss.RepairMaps)
	}
}

// singleJobMaps counts the map tasks l served for one job alone.
func singleJobMaps(l *taskLog) (n int64) {
	for _, task := range l.served() {
		if task.jobs == 1 {
			n++
		}
	}
	return n
}

// (d) Lost holder, for good: one of three workers dies after two of
// four segments with two jobs in flight. Their reducers report what it
// held, and exactly that is mapped again — per job, so once for the job
// that finishes first and never for both together.
func TestLostHolderIsRepaired(t *testing.T) {
	const jobs, before = 2, 2 // segments mapped before the loss
	logs := make([]*taskLog, 3)
	workers, addrs := serveWorkers(t, 3, recordInto(logs, 0, 2))
	m := dialT(t, addrs, wordcountRefs(jobs))
	sched := submitAll(t, jobs)
	driveRounds(t, sched, m, before)
	lost := int(workers[1].wireStats().MapTasks) // (job, block) outputs only it holds
	if lost != jobs*before {
		t.Fatalf("the worker about to die mapped %d (job, block) pairs, want %d", lost, jobs*before)
	}
	workers[1].Close()
	driveRounds(t, sched, m, -1)
	checkOutputs(t, m, jobs)

	ss := repairsOf(m)
	if ss.RepairMaps == 0 || ss.RepairMaps > int64(lost) || ss.ReduceRetries == 0 {
		t.Errorf("%+v, want between 1 and %d repair maps", ss, lost)
	}
	// Every round served both jobs, so a task for one job is a repair.
	if single := singleJobMaps(logs[0]) + singleJobMaps(logs[2]); single != ss.RepairMaps {
		t.Errorf("%d map tasks named a single job, %d repair maps counted: a repair re-reads a block for its one job", single, ss.RepairMaps)
	}
}

// (d) Lost holder, restarted: a worker replaced under the same identity
// by a fresh process has an empty stash. The reduce finds the gap, the
// blocks the old process mapped are mapped again, nothing else is.
func TestRestartedHolderIsRepaired(t *testing.T) {
	const jobs = 2
	master, workers, ctlAddr := startDynamicCluster(t, 2, wordcountRefs(jobs), testCtlConfig)
	var (
		replacement *Worker
		lost        int64
		rounds      int
	)
	hooks := s3runtime.Hooks{OnRoundDone: func(scheduler.Round, vclock.Time, []scheduler.JobID) {
		if rounds++; rounds != 2 {
			return
		}
		lost = workers[1].wireStats().MapTasks
		workers[1].Close()
		waitFor(t, 5*time.Second, "loss detection", func() bool { n, _ := master.MapSlots(); return n == 1 })
		replacement = startRegisteredWorker(t, NewStandardRegistry(), ctlAddr, "w1")
		waitFor(t, 5*time.Second, "replacement rejoin", func() bool { n, _ := master.MapSlots(); return n == 2 })
	}}
	res := dynamicRun(t, master, jobs, nil, hooks)
	if replacement == nil {
		t.Fatal("the restart never happened")
	}
	defer replacement.Close()
	if _, err := metrics.TET(res.Jobs); err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, master, jobs)
	if ss := repairsOf(master); ss.RepairMaps == 0 || ss.RepairMaps > lost {
		t.Errorf("%+v, want between 1 and %d repair maps: what the old process had mapped", ss, lost)
	}
	if fs := res.Faults; fs.RequeuedRounds != 0 {
		t.Errorf("%d rounds requeued: a lost stash is repaired inside the round", fs.RequeuedRounds)
	}
}

// (d) A holder restarted at the same address. Its peer still keeps a
// connection to the process that is gone; the first fetch over it fails,
// and is made again on a fresh one instead of costing a repair of
// everything the new process holds.
func TestRestartedPeerIsRedialed(t *testing.T) {
	workers, addrs := serveWorkers(t, 2, nil)
	driveRounds(t, submitAll(t, 1), dialT(t, addrs, wordcountRefs(1)), -1) // the workers now keep connections to each other
	workers[1].Close()
	restarted := NewWorker(testStore(t), NewStandardRegistry())
	if _, err := restarted.Serve(addrs[1]); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	m := dialT(t, addrs, wordcountRefs(1))
	driveRounds(t, submitAll(t, 1), m, -1)
	checkOutputs(t, m, 1)
	if ss := repairsOf(m); ss != (repairs{}) || restarted.wireStats().ShuffleServedBytes == 0 {
		t.Errorf("%+v, %d bytes served by the restarted worker: want its runs fetched, not mapped again", ss, restarted.wireStats().ShuffleServedBytes)
	}
}

// (d') Two reduces that start together with no connection kept to a
// peer dial it once: the second waits on the first's dial. The peer sits
// behind a listener that counts accepts and holds each hello 50 ms, so
// both fetches start while that dial is in flight.
func TestConcurrentFetchesDialAPeerOnce(t *testing.T) {
	workers, addrs := serveWorkers(t, 2, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		accepts atomic.Int64
		proxies sync.WaitGroup
	)
	defer proxies.Wait()
	defer workers[0].Close() // its peer connections end the proxies' copies
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			proxies.Add(1)
			go func() {
				defer proxies.Done()
				defer c.Close()
				time.Sleep(50 * time.Millisecond)
				up, err := net.Dial("tcp", addrs[1])
				if err != nil {
					return
				}
				go func() {
					io.Copy(up, c)
					up.Close()
				}()
				io.Copy(c, up)
			}()
		}
	}()

	args := &ReduceTaskArgs{Epoch: 1, ID: 1, Peers: []string{ln.Addr().String()}, FetchDeadline: 5 * time.Second}
	start := make(chan struct{})
	var reduces sync.WaitGroup
	for i := 0; i < 2; i++ {
		reduces.Add(1)
		go func() {
			defer reduces.Done()
			<-start
			if _, err := workers[0].gather(args, testBlocks); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	reduces.Wait()
	if n := accepts.Load(); n != 1 {
		t.Errorf("the peer accepted %d connections, want 1", n)
	}
}

// fetchWedged is a real worker whose FetchShuffle never answers.
type fetchWedged struct {
	*Worker
	release chan struct{}
}

func (w *fetchWedged) FetchShuffle(*FetchArgs, *FetchReply) error {
	<-w.release
	return errors.New("released without an answer")
}

// (e) Wedged peer. Worker 0 maps and reduces but will not serve a
// fetch. The reducer on worker 1 waits half the task deadline for it,
// once, reports worker 0's blocks missing, has them mapped again next to
// itself, and then needs no peer at all. The round never hangs.
func TestWedgedPeerCostsOneDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, addrs := serveWorkers(t, 2, func(i int, w *Worker) any {
		if i == 0 {
			return &fetchWedged{w, release}
		}
		return nil
	})
	m := dialT(t, addrs, wordcountRefs(1))
	const deadline = 400 * time.Millisecond
	m.SetTaskDeadline(deadline)
	start := time.Now()
	driveRounds(t, submitAll(t, 1), m, -1)
	if took := time.Since(start); took < deadline/2 || took > 5*deadline {
		t.Errorf("the run took %v, want one fetch deadline (%v) and change", took, deadline/2)
	}
	checkOutputs(t, m, 1)
	// Partition 1 reduces on worker 1 and lacks worker 0's six blocks;
	// partition 0 reduces on worker 0, which fetches from its healthy peer.
	if ss := repairsOf(m); ss.RepairMaps != testBlocks/2 || ss.ReduceRetries != 1 {
		t.Errorf("%+v, want %d repair maps and one reduce retry", ss, testBlocks/2)
	}
}

// fetchMangler serves a real worker whose fetch replies are rewritten
// on their way out.
func fetchMangler(w *Worker, mangle func([]byte) []byte) serveFunc {
	serve := dispatchTo(w)
	return func(m method, req, out []byte) ([]byte, error) {
		start := len(out)
		out, err := serve(m, req, out)
		if m == fetchShuffle && err == nil {
			out = append(out[:start], mangle(bytes.Clone(out[start:]))...)
		}
		return out, err
	}
}

// (e) A peer that answers a fetch with something that is not a partition
// of the job's file fails the round with a task-level error naming it:
// no panic, no repair, nothing committed.
func TestMalformedFetchReplyFailsTheJob(t *testing.T) {
	outOfFile := (&FetchReply{Blocks: []int{testBlocks}, Runs: [][]mapreduce.KV{nil}}).appendTo(nil)
	mangles := map[string]struct {
		mangle func([]byte) []byte
		want   string
	}{
		"truncated frame":       {func(b []byte) []byte { return b[:len(b)-3] }, "malformed"},
		"trailing garbage":      {func(b []byte) []byte { return append(b, "garbage"...) }, "malformed"},
		"no bytes at all":       {func([]byte) []byte { return nil }, "malformed"},
		"block not in the file": {func([]byte) []byte { return outOfFile }, fmt.Sprintf("block %d of a %d-block file", testBlocks, testBlocks)},
	}
	for name, c := range mangles {
		var bad string
		_, addrs := serveWorkers(t, 2, func(i int, w *Worker) any {
			if i == 0 {
				return fetchMangler(w, c.mangle)
			}
			return nil
		})
		bad = addrs[0]
		m := dialT(t, addrs, wordcountRefs(1))
		s := submitAll(t, 1)
		driveRounds(t, s, m, 3)
		r, _ := s.NextRound(0)
		_, err := m.ExecRound(r)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), `"wc-`) {
			t.Errorf("%s: ExecRound error = %v, want %q naming the job and the peer at %s", name, err, c.want, bad)
		}
		var outage *allWorkersError
		if isTransportError(err) || errors.As(err, &outage) {
			t.Errorf("%s: %v is not task-level", name, err)
		}
		if ss := repairsOf(m); committed(m) != 0 || ss.RepairMaps != 0 {
			t.Errorf("%s: %d results and %+v, want nothing committed and nothing repaired", name, committed(m), ss)
		}
	}
}

// (g) Bounded. Two hundred jobs stream through two workers, a few in
// flight at a time. A finished job's entries leave a worker with the
// next map task it answers, so after every round a stash holds the jobs
// still running and those the round itself finished, nothing older; and
// once the cluster has drained the ledger poll, the last call the master
// makes, takes the rest: the byte gauge is back at zero.
func TestStashHoldsInflightJobsOnly(t *testing.T) {
	const jobs = 200
	workers, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, wordcountRefs(jobs))
	var arrivals []s3runtime.Arrival
	for i := 0; i < jobs; i++ {
		arrivals = append(arrivals, s3runtime.Arrival{Job: scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "corpus"}, At: vclock.Time(2 * i)})
	}
	var (
		finished = make(map[scheduler.JobID]bool) // before the round just done
		peak     int64
	)
	hooks := s3runtime.Hooks{OnRoundDone: func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
		for i, w := range workers {
			for job := range stashedJobs(w) {
				if finished[job.id] {
					t.Errorf("worker %d still holds job %d, finished a round ago", i, job.id)
				}
			}
			peak = max(peak, w.wireStats().StashEntries)
		}
		for _, id := range completed {
			finished[id] = true
		}
	}}
	res, err := s3runtime.RunTrace(core.New(testPlan(t), nil), unitRounds{Master: m}, arrivals, s3runtime.Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != jobs || committed(m) != jobs {
		t.Fatalf("%d jobs finished, %d results", len(res.Jobs), committed(m))
	}
	// A job rides four rounds and one arrives every two: three in flight
	// at most, six of twelve blocks each on a worker.
	if peak == 0 || peak > 3*testBlocks/2 {
		t.Errorf("a stash peaked at %d entries, want at most %d", peak, 3*testBlocks/2)
	}
	stats, err := m.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.StashBytes != 0 || st.StashEntries != 0 || st.ShuffleFetchedBytes == 0 || st.ShuffleServedBytes == 0 {
			t.Errorf("worker %s drained to %d bytes in %d entries, %d fetched, %d served: want an empty stash that was used", st.Worker, st.StashBytes, st.StashEntries, st.ShuffleFetchedBytes, st.ShuffleServedBytes)
		}
	}
	if ss := repairsOf(m); ss != (repairs{}) || stats[0].ShuffleFetchedBytes+stats[1].ShuffleFetchedBytes != stats[0].ShuffleServedBytes+stats[1].ShuffleServedBytes {
		t.Errorf("%+v, ledgers %+v: want nothing repaired and every byte served fetched", ss, stats)
	}
	want := referenceResults(t, 3)
	for id, out := range want {
		if got := outputsOf(m)[id]; got != out {
			t.Errorf("job %d differs from the reference", id)
		}
	}

	// A worker that closes hangs up on its peers.
	workers[0].mu.Lock()
	peers := len(workers[0].peers)
	workers[0].mu.Unlock()
	if peers != 1 {
		t.Fatalf("worker 0 keeps %d peer connections, want the one to worker 1", peers)
	}
	workers[0].Close()
	if len(workers[0].peers) != 0 {
		t.Error("a closed worker still holds peer connections")
	}
	if f := workers[0].startFetch(addrs[1], &FetchArgs{}, 0); !errors.Is(f.err, net.ErrClosed) {
		t.Errorf("a closed worker dialed a peer: %v", f.err)
	}
}

// FuzzFetchReply throws arbitrary bytes at the fetch reply's decoder and
// at the reducer's fold of what it decodes. Neither panics; decoding
// allocates a constant factor of the input (a count the bytes cannot hold
// is an error before anything is allocated for it); block indices that
// repeat, descend or lie outside the file are rejected; and what decodes
// re-encodes to the very bytes.
func FuzzFetchReply(f *testing.F) {
	f.Add([]byte{0})
	good := (&FetchReply{Blocks: []int{0, 3, 200}, Runs: [][]mapreduce.KV{{{Key: "k", Value: "v"}}, nil, {{Key: "\xff", Value: strings.Repeat("x", 300)}}}}).appendTo(nil)
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), "trailing"...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{2, 5, 0, 5, 0})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x7f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		var reply FetchReply
		runtime.ReadMemStats(&before)
		err := decodeMessage(data, &reply)
		runtime.ReadMemStats(&after)
		// The input as a string, per two input bytes at most one run (a
		// block index and a slice header, 32 bytes) and at most one
		// 32-byte record, the error: 33 × the input, plus slack.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(33*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if reply.Blocks != nil || reply.Runs != nil {
				t.Fatalf("error %v but the reply was filled in", err)
			}
			return
		}
		if again := reply.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding gives %x, decoded from %x", again, data)
		}
		const fileBlocks = 64
		g := &gathered{runs: make([][]mapreduce.KV, fileBlocks), have: make([]bool, fileBlocks), left: fileBlocks}
		for i, block := range reply.Blocks {
			if i > 0 && block <= reply.Blocks[i-1] {
				t.Fatalf("decoded blocks %v do not ascend", reply.Blocks)
			}
			if err := g.add(block, reply.Runs[i]); (err != nil) != (block >= fileBlocks) {
				t.Fatalf("block %d of a %d-block file: %v", block, fileBlocks, err)
			}
		}
	})
}

// lineitemWorker is a worker over a lineitem file of 512 KB blocks.
func lineitemWorker(t testing.TB, blocks int) *Worker {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddLineitemFile(store, "lineitem", blocks, 512<<10, 1); err != nil {
		t.Fatal(err)
	}
	return NewWorker(store, NewStandardRegistry())
}

// A selection task over a 512 KB block — ≈50 KB of records per job —
// answers in a few bytes per job whatever it selected, and what the
// master decodes holds no record slice: no []KV exists there any more.
func TestMapReplyCarriesNoRecords(t *testing.T) {
	w := lineitemWorker(t, 1)
	args := &MapTaskArgs{File: "lineitem", Blocks: []int{0}, Epoch: 1}
	for i := 0; i < 4; i++ {
		args.IDs = append(args.IDs, scheduler.JobID(i+1))
		args.Jobs = append(args.Jobs, JobRef{Name: fmt.Sprintf("sel-%d", i), Factory: "selection", Param: fmt.Sprint(5 + 10*i), NumReduce: 2})
	}
	var reply MapTaskReply
	if err := w.ExecMap(args, &reply); err != nil {
		t.Fatal(err)
	}
	var stashed int64
	for i, parts := range reply.Receipts {
		for p, rc := range parts {
			if rc.Records == 0 {
				t.Errorf("job %d partition %d: receipt %+v", i, p, rc)
			}
			stashed += rc.Bytes
		}
	}
	if st := w.wireStats(); stashed < 100<<10 || st.StashBytes != stashed || st.StashEntries != 4 {
		t.Fatalf("receipts add up to %d bytes, the stash holds %d in %d entries", stashed, st.StashBytes, st.StashEntries)
	}

	body := reply.appendTo(nil)
	if size := len(body); size > 128*len(args.Jobs) {
		t.Errorf("the reply for %d jobs is %d wire bytes, want at most 128 a job", len(args.Jobs), size)
	}
	var got MapTaskReply
	if err := decodeMessage(body, &got); err != nil || got.PerJob != nil || !reflect.DeepEqual(got, reply) {
		t.Fatalf("reply arrived as %+v, %v", got, err)
	}
}

// One worker, one partition: everything the reduce needs is in its own
// stash, so the job's map output is never encoded, sent or decoded. The
// reduce allocates the records' headers once, to sort them, and the
// output frame, which it keeps; a codec pass would at least double that.
func TestLocalPartitionIsNeverEncoded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are meaningless under -race")
	}
	const blocks = 4
	w := lineitemWorker(t, blocks)
	ref := JobRef{Name: "sel", Factory: "selection", Param: "5", NumReduce: 1}
	var records, payload int64
	for b := 0; b < blocks; b++ {
		var reply MapTaskReply
		if err := w.ExecMap(&MapTaskArgs{File: "lineitem", Blocks: []int{b}, Epoch: 1, IDs: []scheduler.JobID{1}, Jobs: []JobRef{ref}}, &reply); err != nil {
			t.Fatal(err)
		}
		records, payload = records+reply.Receipts[0][0].Records, payload+reply.Receipts[0][0].Bytes
	}
	args := &ReduceTaskArgs{Job: ref, Epoch: 1, ID: 1, File: "lineitem", Peers: []string{"127.0.0.1:1"}} // a peer that is not there is never asked
	var reply ReduceTaskReply
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.ExecReduce(args, &reply)
	runtime.ReadMemStats(&after)
	var held []byte
	if ferr := w.FetchResult(&FetchArgs{Epoch: 1, ID: 1}, &held); err != nil || ferr != nil || len(reply.Missing) != 0 {
		t.Fatalf("reduce: %v, missing %v; fetch: %v", err, reply.Missing, ferr)
	}
	if _, err := decodeResult(held, reply.Receipt); err != nil || reply.Receipt.Records != records {
		t.Fatalf("the held frame against its receipt %+v for %d records: %v", reply.Receipt, records, err)
	}
	kvSize := int64(reflect.TypeOf(mapreduce.KV{}).Size())
	budget := records*kvSize + reply.Receipt.Bytes + 64<<10
	if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > budget || reply.Receipt.Bytes < payload {
		t.Errorf("reducing %d records (%d bytes) allocated %d bytes for a %d-byte output, want at most %d: one copy of the record headers and the frame", records, payload, grew, reply.Receipt.Bytes, budget)
	}
	if st := w.wireStats(); st.ShuffleFetchedBytes != 0 || st.ShuffleServedBytes != 0 || len(w.peers) != 0 {
		t.Errorf("a local partition touched the network: %+v, %d peer connections", st, len(w.peers))
	}
}
