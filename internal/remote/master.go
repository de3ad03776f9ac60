package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Master drives scheduler rounds on remote workers. It implements
// runtime.Executor, so the same round loop that runs the simulator
// also runs the distributed cluster.
//
// Workers dial the master (ListenControl) and register with identity,
// listen address and map slots; the master calls each over the
// connection it registered on — tasks, and a Stats call every heartbeat,
// on a deadline — and a worker survives restarts by re-registering. The
// master keeps a joined/suspect/dead membership table, which records its
// joins, rejoins and losses in the master's trace (SetTrace) and backs
// the status server's GET /cluster and membership metrics. Dial
// registers workers the master dials itself; they never heartbeat, and
// one lost stays lost.
//
// Task placement is locality-first over the live membership snapshot:
// block i is mapped on live worker i mod W; reduce partition p of a
// job runs on live worker p mod W. A worker missing from the snapshot
// (declared dead) simply stops receiving tasks; a task failing with a
// transport error rotates to the next live worker, exactly like
// re-running against another HDFS replica. A round that fails on every
// live worker is reported as a *scheduler.RoundLostError, which the
// runtime requeues — so a full-cluster outage becomes a
// requeue-until-rejoin loop, bounded by the engine's MaxRequeues.
type Master struct {
	members *membership
	// timeScale converts measured wall seconds to virtual seconds.
	timeScale float64
	// clock counts from epoch (Clock).
	clock *vclock.Wall
	// log, when non-nil, records one TaskDispatched event per issued
	// call, tagged with a correlation id the worker echoes into its own
	// trace. roundSeq numbers rounds for those ids.
	log      *trace.Log
	roundSeq int
	// wall, when non-nil (SetRegistry), takes every round's wall-clock
	// split; returned is when ExecRound last did.
	wall     *wallMetrics
	returned vclock.Time

	ctlWG sync.WaitGroup

	// taskDeadline, when positive, bounds each worker exec call; expiry
	// is classified as a transport failure (see SetTaskDeadline).
	taskDeadline time.Duration

	// recomputeMu serialises recomputes (results.go); it is taken before mu.
	recomputeMu sync.Mutex

	mu sync.Mutex
	// ctl is the control-plane listener, nil before ListenControl.
	ctl    net.Listener
	ctlCfg ControlConfig
	// jobs is the master's one record of each job, kept after it ends.
	jobs map[scheduler.JobID]*masterJob
	// epoch is this master's boot time and the first part of every stash
	// key its tasks write on the workers (stash.go); RestoreEpoch keeps a
	// recovered master on the one its resumed jobs were mapped under.
	epoch int64
	// finished lists, in order, the jobs whose stash entries the workers may
	// drop, from the finishedBase-th on (commitResult trims it); released[w]
	// is how many w got with calls it answered.
	finished     []scheduler.JobID
	finishedBase int
	released     map[string]int
	// recomputing is the job whose lost output is being reduced again, if
	// any: one at a time (results.go).
	recomputing            scheduler.JobID
	recomputes, mismatches int64
	failovers              int
	// repairMaps and reduceRetries count the recoveries of finishJob.
	repairMaps, reduceRetries int64
	// hints holds the scheduler's newest scan hint per file; the file's
	// next round carries each worker's share on its map tasks.
	hints map[string]dfs.ScanHint
	// installed holds every derived file pushed cluster-wide (DAG stage
	// outputs), in installation order; a (re)registering worker gets
	// them replayed during its handshake, so membership churn cannot
	// strand a pipeline stage on a worker missing its input.
	installed    map[string]*InstallFileArgs
	installOrder []string
	// journal, when non-nil, receives a job-result record when a job's
	// output commits (see durable.go).
	journal *journal.Journal
}

// masterJob is what the master keeps of a job: its JobRef; its map
// output while mapped and unreduced; once committed, its result
// (results.go). A result restored for a job never registered makes its
// record, with a zero JobRef.
type masterJob struct {
	ref     JobRef
	shuffle *jobShuffle
	result  *jobResult
}

// jobShuffle is the master's side of one job's map output: the file it
// is scanned from, every block of which must reach the reduce, and per
// partition what the map replies said they stashed — an observation (a
// re-run task counts again) for the trace and, one day, reduce placement.
type jobShuffle struct {
	file     string
	receipts []PartReceipt
}

// lastEpoch keeps the epochs of one process's masters distinct and
// ascending even when two boot inside one clock tick.
var lastEpoch atomic.Int64

func newEpoch() int64 {
	for {
		last := lastEpoch.Load()
		if now := max(time.Now().UnixNano(), last+1); lastEpoch.CompareAndSwap(last, now) {
			return now
		}
	}
}

// NewMaster builds a master with no workers yet: call ListenControl
// and let workers register (optionally gating on WaitForWorkers).
// jobs pre-registers the batch workload; more may be registered later
// with RegisterJob — the live-admission path.
func NewMaster(jobs map[scheduler.JobID]JobRef) *Master {
	m := &Master{
		members:   newMembership(),
		jobs:      make(map[scheduler.JobID]*masterJob, len(jobs)),
		timeScale: 1,
		released:  make(map[string]int),
		hints:     make(map[string]dfs.ScanHint),
		installed: make(map[string]*InstallFileArgs),
	}
	for id, ref := range jobs {
		m.jobs[id] = &masterJob{ref: ref}
	}
	m.RestoreEpoch(newEpoch())
	return m
}

// Dial connects a master to a fixed list of worker addresses, registering
// each as member dial-<i> of one map slot. The master never heartbeats
// them; a transport failure declares one dead, and nothing brings it
// back. Its one non-test caller is bench/perf/replica.go, until the
// replica goes (ROADMAP item 26).
func Dial(addrs []string, jobs map[scheduler.JobID]JobRef) (*Master, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: master needs at least one worker")
	}
	m := NewMaster(jobs)
	for i, addr := range addrs {
		c, err := dialTask(addr, 0)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("remote: dialing worker %s: %w", addr, err)
		}
		m.members.register(fmt.Sprintf("dial-%d", i), addr, 1, c, comms.ConnStats{})
	}
	return m, nil
}

// SetTimeScale sets the virtual-seconds-per-wall-second factor.
func (m *Master) SetTimeScale(scale float64) {
	if scale <= 0 {
		panic(fmt.Sprintf("remote: time scale must be positive, got %v", scale))
	}
	m.timeScale = scale
}

// wallMetrics are where a round's wall time goes, in seconds: the map
// phase as the master waits for it, the slowest handler inside it, what is
// left (encode, a process wake-up each way, decode), the reduce phase of a
// round that has one, the run loop's time between two rounds; per map task
// its passes' time in the map function; per reduce task its handler, the
// peer fetches in it, and the rest of the call.
type wallMetrics struct {
	mapPhase, mapHandler, mapHop, reducePhase, roundGap, mapPass, reduceHandler, reduceFetch, reduceHop *metrics.Histogram
}

// SetRegistry publishes the wall-clock split of every round on reg, as
// s3_wall_*_seconds. Call before the first round.
func (m *Master) SetRegistry(reg *metrics.Registry) {
	hist := func(name, help string) *metrics.Histogram {
		return reg.Histogram("s3_wall_"+name+"_seconds", help, metrics.DurationBuckets)
	}
	m.wall = &wallMetrics{
		hist("map_phase", "wall time of a round's map phase at the master"),
		hist("map_handler", "wall time of a round's slowest map handler"),
		hist("map_hop", "map phase less its slowest handler: encode, wake-ups, decode"),
		hist("reduce_phase", "wall time of a round's reduce phase, rounds completing a job only"),
		hist("round_gap", "wall time between ExecRound returning and being called again"),
		hist("map_pass", "wall time a map task's passes spent in the map function, summed over them"),
		hist("reduce_handler", "wall time of a reduce task's handler"),
		hist("reduce_fetch", "wall time a reduce handler waited on its peers' map output"),
		hist("reduce_hop", "a reduce call less its handler: encode, wake-ups, decode"),
	}
}

// SetTrace installs a trace log recording every dispatched task with
// its correlation id, and the membership table's joins (the members it
// already holds first), rejoins and losses. nil clears it. Call before
// the first round, after RestoreEpoch.
func (m *Master) SetTrace(log *trace.Log) {
	m.log = log
	m.members.setTrace(log, m.clock)
}

// HandleScanHint keeps h as its file's newest hint. A hint is the full
// picture, so every later round of the file — requeued, or served by a
// restarted worker — re-sends it and nothing is ever replayed. The
// signature matches core.ScanHinter.
func (m *Master) HandleScanHint(h dfs.ScanHint) {
	m.mu.Lock()
	m.hints[h.File] = h
	m.mu.Unlock()
}

// RegisterJob makes a live-submitted job runnable: subsequent rounds
// including id ship ref to the workers with each task (workers need no
// pre-registration — every task carries its JobRefs, so registering at
// the master is what forwards the submission cluster-wide). Safe to
// call from an admission goroutine while a round is in flight.
// Re-registering an id is an error.
func (m *Master) RegisterJob(id scheduler.JobID, ref JobRef) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.jobs[id]; dup {
		return fmt.Errorf("remote: job %d already registered", id)
	}
	m.jobs[id] = &masterJob{ref: ref}
	return nil
}

// Job reports the JobRef registered under id.
func (m *Master) Job(id scheduler.JobID) (JobRef, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobRef{}, false
	}
	return j.ref, true
}

// InstallFile publishes a derived file cluster-wide: it is recorded
// for replay to future registrants, then pushed to every currently
// live worker. Re-installing the same name with identical geometry is
// a no-op (recovery re-derives stage outputs idempotently); a geometry
// conflict is an error. A push failing with a transport error is
// tolerated — that worker is dying or restarting, and its next
// registration handshake replays the file — while a task-level
// rejection (the worker holds a conflicting file) propagates.
func (m *Master) InstallFile(name string, blockSize int64, blocks [][]byte) error {
	if name == "" || len(blocks) == 0 {
		return fmt.Errorf("remote: install needs a name and at least one block")
	}
	args := &InstallFileArgs{Name: name, BlockSize: blockSize, Blocks: blocks}
	m.mu.Lock()
	if prev, ok := m.installed[name]; ok {
		if prev.BlockSize != blockSize || len(prev.Blocks) != len(blocks) {
			m.mu.Unlock()
			return fmt.Errorf("remote: file %q already installed with %d×%dB blocks, refusing %d×%dB",
				name, len(prev.Blocks), prev.BlockSize, len(blocks), blockSize)
		}
		m.mu.Unlock()
		return nil
	}
	m.installed[name] = args
	m.installOrder = append(m.installOrder, name)
	m.mu.Unlock()

	_, live := m.members.live()
	for _, w := range live {
		var reply InstallFileReply
		if err := m.callWorker(w, installFile, args, &reply); err != nil {
			if isTransportError(err) {
				continue
			}
			return fmt.Errorf("remote: installing %q on worker %s: %w", name, w.id, err)
		}
	}
	return nil
}

// InstallStored is InstallFile for the file name of store: its blocks as
// store reads them.
func (m *Master) InstallStored(store *dfs.Store, name string) error {
	f, err := store.File(name)
	if err != nil {
		return err
	}
	blocks := make([][]byte, f.NumBlocks)
	for i, id := range f.Blocks() {
		if blocks[i], err = store.ReadBlock(id); err != nil {
			return fmt.Errorf("remote: reading %v to install it: %w", id, err)
		}
	}
	return m.InstallFile(name, f.BlockSize, blocks)
}

// pushInstalled replays every installed derived file to one worker, in
// installation order — the registration-handshake half of InstallFile.
func (m *Master) pushInstalled(w liveWorker) error {
	m.mu.Lock()
	files := make([]*InstallFileArgs, len(m.installOrder))
	for i, name := range m.installOrder {
		files[i] = m.installed[name]
	}
	m.mu.Unlock()
	for _, args := range files {
		var reply InstallFileReply
		if err := m.callWorker(w, installFile, args, &reply); err != nil {
			return fmt.Errorf("remote: replaying %q to worker %s: %w", args.Name, w.id, err)
		}
	}
	return nil
}

// Close stops the control plane and drops all worker connections.
func (m *Master) Close() error {
	m.mu.Lock()
	ln := m.ctl
	m.ctl = nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	err := m.members.closeAll()
	m.ctlWG.Wait()
	return err
}

// WorkerStats polls every live worker's counters.
func (m *Master) WorkerStats() ([]StatsReply, error) { return m.pollStats(true) }

// pollStats polls the live workers' counters under the task deadline: a
// wedged-but-connected worker costs a scrape one deadline, not forever.
// It fails a strict poll; a best-effort one skips it, ledger and all.
func (m *Master) pollStats(strict bool) ([]StatsReply, error) {
	var out []StatsReply
	_, live := m.members.live()
	for _, w := range live {
		st := new(StatsReply)
		done, ack := m.releasesFor(w)
		if err := m.callWorker(w, workerStats, &StatsArgs{Epoch: m.epoch, Done: done}, st); err == nil {
			ack()
			st.Worker = w.id
			out = append(out, *st)
		} else if strict {
			return nil, fmt.Errorf("remote: polling stats of %s: %w", w.id, err)
		}
	}
	return out, nil
}

// FaultStats implements runtime.FaultStatsSource: the master's
// failover count plus every reachable worker's failed-read counter, so
// a remote run's end-of-run ledger matches what a local run folds from
// its own store.
func (m *Master) FaultStats() metrics.FaultStats {
	m.mu.Lock()
	fs := metrics.FaultStats{Retries: m.failovers}
	m.mu.Unlock()
	stats, _ := m.pollStats(false)
	for _, st := range stats {
		fs.FailedAttempts += int(st.FailedReads)
	}
	return fs
}

// CacheStats implements runtime.CacheStatsSource by summing every
// reachable worker's block-cache counters.
func (m *Master) CacheStats() dfs.CacheStats {
	var cs dfs.CacheStats
	stats, _ := m.pollStats(false)
	for _, st := range stats {
		cs.Add(st.Cache())
	}
	return cs
}

// ClusterSnapshot implements status.ClusterSource: the full membership
// table, including dead members awaiting rejoin.
func (m *Master) ClusterSnapshot() []comms.WorkerInfo { return m.members.snapshot() }

// ShuffleRepairs implements status.ClusterSource: map tasks run again
// because no worker held their output at reduce time, and reduces retried.
func (m *Master) ShuffleRepairs() (maps, retries int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repairMaps, m.reduceRetries
}

// allWorkersError marks a task that failed with transport errors on
// every live worker — the signature of a (possibly transient) cluster
// outage rather than a job bug.
type allWorkersError struct {
	what string
	err  error
}

func (e *allWorkersError) Error() string {
	return fmt.Sprintf("remote: %s failed on every worker: %v", e.what, e.err)
}

func (e *allWorkersError) Unwrap() error { return e.err }

// taskErrs keeps what one fan-out of tasks should report: a job-owned
// error once there is one — it must propagate, never be masked as a
// lost round and requeued — else an outage.
type taskErrs struct {
	mu  sync.Mutex
	err error
}

func (e *taskErrs) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, outage := e.err.(*allWorkersError); e.err == nil || outage {
		e.err = err
	}
}

// fanOut runs task(0) … task(n-1) side by side and reports what taskErrs
// keeps of their errors.
func fanOut(n int, task func(i int) error) error {
	var wg sync.WaitGroup
	var errs taskErrs
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := task(i); err != nil {
				errs.add(err)
			}
		}(i)
	}
	wg.Wait()
	return errs.err
}

// corr formats a task's correlation id, empty when nothing is traced.
func (m *Master) corr(format string, args ...any) string {
	if m.log == nil {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// ExecRound implements runtime.Executor: have every worker map its blocks
// of the round — block i is at home on worker i mod W — in one merged task
// and keep the output, then have the completed jobs' partitions reduced
// across the workers, each pulling its input from where the maps left it.
// Homes, hint shares and reduce peers come from one membership snapshot.
func (m *Master) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	start := m.clock.Now()
	if m.wall != nil && m.returned > 0 {
		m.wall.roundGap.Observe(float64(start - m.returned))
	}
	defer func() { m.returned = m.clock.Now() }()
	// A job whose result a lost attempt of this round committed is
	// finished: it is neither mapped nor reduced again.
	var refs []JobRef
	var ids []scheduler.JobID
	var file string        // a round scans one file
	var hint *dfs.ScanHint // the scheduler's newest for it, if any
	if len(r.Blocks) > 0 {
		file = r.Blocks[0].File
	}
	m.mu.Lock()
	grace := m.ctlCfg.RejoinGrace
	if h, ok := m.hints[file]; ok {
		hint = &h
	}
	for _, j := range r.Jobs {
		job, ok := m.jobs[j.ID]
		if !ok {
			m.mu.Unlock()
			return 0, fmt.Errorf("remote: no JobRef registered for job %d", j.ID)
		}
		if job.result != nil {
			continue
		}
		refs, ids = append(refs, job.ref), append(ids, j.ID)
		if job.shuffle == nil && file != "" {
			job.shuffle = &jobShuffle{file: file, receipts: make([]PartReceipt, job.ref.width())}
		}
	}
	m.mu.Unlock()

	// A workerless moment is recoverable: wait out the rejoin grace (none
	// before ListenControl), then report the round lost so the engine
	// requeues it (and re-enters this wait).
	ver, live := m.members.live()
	if len(live) == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		ver, live = m.members.waitLive(ctx, 1)
		cancel()
	}
	if len(live) == 0 {
		return 0, m.roundLost(r, start, &allWorkersError{
			what: fmt.Sprintf("round over segment %d", r.Segment),
			err:  fmt.Errorf("no live workers"),
		})
	}

	// Map phase: one merged task per worker with a block of the round,
	// failing over as a whole when the worker is unreachable. A task that
	// ran twice wrote its stash entries twice, or the same bytes on two
	// workers of which the reduce keeps one: nothing to commit or undo.
	seq := m.roundSeq
	m.roundSeq++
	began := m.clock.Now()
	if len(ids) > 0 && file != "" {
		groups := make([][]int, len(live)) // by home; a round's blocks ascend
		for _, b := range r.Blocks {
			groups[b.Index%len(live)] = append(groups[b.Index%len(live)], b.Index)
		}
		handlers := make([]int64, len(live))
		err := fanOut(len(groups), func(home int) (err error) {
			if blocks := groups[home]; len(blocks) > 0 {
				handlers[home], err = m.mapWithFailover(ver, live, m.corr("r%d.m%d", seq, blocks[0]), file, blocks, home, ids, refs, hint)
			}
			return err
		})
		if err != nil {
			return 0, m.roundLost(r, start, err)
		}
		if m.wall != nil {
			phase, handler := float64(m.clock.Now()-began), float64(slices.Max(handlers))/1e9
			m.wall.mapPhase.Observe(phase)
			m.wall.mapHandler.Observe(handler)
			m.wall.mapHop.Observe(max(phase-handler, 0))
		}
	}

	// Reduce phase: the jobs completing this round reduce side by side.
	mapped := m.clock.Now()
	if err := fanOut(len(r.Completes), func(i int) error { return m.finishJob(ver, live, r.Completes[i]) }); err != nil {
		return 0, m.roundLost(r, start, err)
	}
	end := m.clock.Now()
	if m.wall != nil && len(r.Completes) > 0 {
		m.wall.reducePhase.Observe(float64(end - mapped))
	}
	return vclock.Duration(end.Sub(start).Seconds() * m.timeScale), nil
}

// roundLost converts an all-workers failure into the engine's requeue
// contract; any job-owned error stays a hard error.
func (m *Master) roundLost(r scheduler.Round, start vclock.Time, err error) error {
	if _, outage := err.(*allWorkersError); !outage {
		return err
	}
	elapsed := vclock.Duration(m.clock.Now().Sub(start).Seconds() * m.timeScale)
	if elapsed < 0 {
		elapsed = 0
	}
	return &scheduler.RoundLostError{Round: r, Elapsed: elapsed, Err: err}
}

// withFailover runs one task on its home worker — live[home mod W] —
// then on every other worker of the snapshot (ver, live). Task-level
// errors are returned immediately; transport errors rotate to the next
// worker. One that was not the master's own deadline has shut the task
// client down for good, so the worker is declared dead there and then:
// until the control plane found out, every round would be lost on the
// same dead clients and the requeue bound spent in a moment. If every
// worker fails and the membership changed meanwhile (a rejoin landed
// mid-rotation, or those deaths), one fresh snapshot is tried before
// giving up — with an *allWorkersError whose what the caller, who knows
// the task, fills in. Retried tasks re-execute from the locally
// regenerated blocks. call runs the task on live[pos], into a fresh reply
// each attempt.
func (m *Master) withFailover(ver int, live []liveWorker, home int, call func(live []liveWorker, pos, attempt int) error) error {
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		if len(live) == 0 {
			lastErr = fmt.Errorf("no live workers")
		}
		for off := range live {
			err := call(live, (home+off)%len(live), off+1)
			if err == nil {
				if off > 0 || pass > 0 {
					m.mu.Lock()
					m.failovers++
					m.mu.Unlock()
				}
				return nil
			}
			if !isTransportError(err) {
				return err
			}
			lastErr = err
			var late *TaskDeadlineError
			if !errors.As(err, &late) {
				w := live[(home+off)%len(live)]
				m.members.markDead(w.id, w.gen, err)
			}
		}
		now, fresh := m.members.live()
		if now == ver {
			break
		}
		ver, live = now, fresh
	}
	return &allWorkersError{err: lastErr}
}

// releasesFor returns the finished jobs w has not been told of, and what
// to call once w has answered the call that carried them.
func (m *Master) releasesFor(w liveWorker) (done []scheduler.JobID, ack func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	upTo := m.finishedBase + len(m.finished)
	done = m.finished[max(m.released[w.id], m.finishedBase)-m.finishedBase : len(m.finished) : len(m.finished)]
	if slices.Contains(done, m.recomputing) { // what a recompute stashes goes when it is through: it lists its job again
		done = slices.DeleteFunc(slices.Clone(done), func(id scheduler.JobID) bool { return id == m.recomputing })
	}
	return done, func() {
		m.mu.Lock()
		m.released[w.id] = max(m.released[w.id], upTo)
		m.mu.Unlock()
	}
}

// mapWithFailover runs one merged map task over blocks of file for the
// jobs ids (refs are their programs), first on the worker at position
// home, with the receiving worker's share of hint and the releases it has
// not had. It returns how long the answering worker's handler ran.
func (m *Master) mapWithFailover(ver int, live []liveWorker, corr, file string, blocks []int, home int, ids []scheduler.JobID, refs []JobRef, hint *dfs.ScanHint) (handlerNs int64, err error) {
	var reply *MapTaskReply
	err = m.withFailover(ver, live, home, func(live []liveWorker, pos, attempt int) error {
		w := live[pos]
		if m.log != nil {
			m.log.Addf(m.clock.Now(), trace.TaskDispatched, -1, -1, "corr=%s map %s#%v worker %s attempt %d", corr, file, blocks, w.id, attempt)
		}
		reply = new(MapTaskReply)
		done, ack := m.releasesFor(w)
		args := &MapTaskArgs{File: file, Blocks: blocks, Jobs: refs, Epoch: m.epoch, IDs: ids, Done: done}
		if hint != nil {
			args.Hint = hintShare(*hint, pos, len(live))
		}
		err := m.callWorker(w, execMap, args, reply)
		if err == nil {
			ack()
		}
		return err
	})
	if err != nil {
		if out, ok := err.(*allWorkersError); ok {
			out.what = fmt.Sprintf("blocks %s#%v", file, blocks)
		}
		return 0, err
	}
	if m.wall != nil {
		m.wall.mapPass.Observe(float64(reply.PassNs) / 1e9)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < len(ids) && i < len(reply.Receipts); i++ {
		if sh := m.jobs[ids[i]].shuffle; sh != nil {
			for p, rc := range reply.Receipts[i][:min(len(reply.Receipts[i]), len(sh.receipts))] {
				sh.receipts[p].Records += rc.Records
				sh.receipts[p].Bytes += rc.Bytes
			}
		}
	}
	return reply.WallNs, nil
}

// reduceWithFailover runs one reduce task. It returns the receipt of the
// output and the worker that keeps it, or the blocks whose map output the
// reducer could not find.
func (m *Master) reduceWithFailover(ver int, live []liveWorker, id scheduler.JobID, ref JobRef, sh *jobShuffle, p int) (part journal.ResultPart, missing []int, err error) {
	var reply *ReduceTaskReply
	var call float64 // seconds the answered call took
	corr := m.corr("j%d.p%d", id, p)
	m.mu.Lock()
	want := sh.receipts[p]
	m.mu.Unlock()
	err = m.withFailover(ver, live, p, func(live []liveWorker, pos, attempt int) error {
		w := live[pos]
		if m.log != nil {
			m.log.Addf(m.clock.Now(), trace.TaskDispatched, -1, -1, "corr=%s reduce %q partition %d (%d records, %d bytes stashed) worker %s attempt %d", corr, ref.Name, p, want.Records, want.Bytes, w.id, attempt)
		}
		reply = new(ReduceTaskReply)
		args := &ReduceTaskArgs{Job: ref, Epoch: m.epoch, ID: id, File: sh.file, Partition: p, FetchDeadline: m.taskDeadline / 2}
		for i, peer := range live {
			if i != pos {
				args.Peers = append(args.Peers, peer.addr)
			}
		}
		called := m.clock.Now()
		err := m.callWorker(w, execReduce, args, reply)
		call = float64(m.clock.Now() - called)
		reply.Receipt.Holder = w.id
		return err
	})
	if err != nil {
		if out, ok := err.(*allWorkersError); ok {
			out.what = fmt.Sprintf("job %q partition %d", ref.Name, p)
		}
		return part, nil, err
	}
	if m.wall != nil {
		handler := float64(reply.WallNs) / 1e9
		m.wall.reduceHandler.Observe(handler)
		m.wall.reduceFetch.Observe(float64(reply.FetchNs) / 1e9)
		m.wall.reduceHop.Observe(max(call-handler, 0))
	}
	return reply.Receipt, reply.Missing, nil
}

// reduceRepairs bounds finishJob's repairs before the round is lost: one
// for the worker whose death was the reason, one for a death meanwhile.
const reduceRepairs = 2

// finishJob has every partition of the job reduced and commits the
// receipts. Nothing is released before the result is in, and a job whose
// result a lost attempt of the round committed stays as it is.
func (m *Master) finishJob(ver int, live []liveWorker, id scheduler.JobID) error {
	m.mu.Lock()
	var ref JobRef
	var sh *jobShuffle
	if j := m.jobs[id]; j != nil {
		if j.result != nil {
			m.mu.Unlock()
			return nil
		}
		ref, sh = j.ref, j.shuffle
	}
	m.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("remote: round completes unknown job %d", id)
	}
	parts, err := m.reduceJob(ver, live, id, ref, sh, false)
	if err != nil {
		return err
	}
	rec := journal.JobResultRecord{Job: id, File: sh.file, Parts: parts}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal != nil {
		if err := m.journal.AppendRecord(journal.KindJobResult, rec); err != nil {
			return err
		}
	}
	m.commitResult(rec)
	return nil
}

// reduceJob has every partition of the job reduced on its home worker. A
// reducer that cannot cover some block of the job's file — its holder
// died, restarted empty, or would not answer — says which: those blocks
// are mapped again, for this one job, next to the first partition still
// open, and the open partitions retried; past reduceRepairs the round is
// lost, to be requeued like any other. A recompute (results.go) runs the
// same loop, and its repairs are not counted as a lost worker's. (ver,
// live) is the caller's membership snapshot; a repair takes a fresh one.
func (m *Master) reduceJob(ver int, live []liveWorker, id scheduler.JobID, ref JobRef, sh *jobShuffle, recompute bool) ([]journal.ResultPart, error) {
	parts := make([]journal.ResultPart, ref.width()) // a reduced partition has a holder
	for repairs := 0; ; repairs++ {
		var mu sync.Mutex
		var open []int // partitions still without output
		missing := make(map[int]bool)
		err := fanOut(len(parts), func(p int) error {
			if parts[p].Holder != "" {
				return nil
			}
			part, lacks, err := m.reduceWithFailover(ver, live, id, ref, sh, p)
			mu.Lock()
			defer mu.Unlock()
			if len(lacks) > 0 {
				open = append(open, p)
			} else if err == nil {
				parts[p] = part
			}
			for _, block := range lacks {
				missing[block] = true
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(open) == 0 {
			return parts, nil
		}
		if repairs == reduceRepairs {
			return nil, &allWorkersError{what: fmt.Sprintf("job %q", ref.Name), err: fmt.Errorf("map output of %d blocks still missing after %d repairs", len(missing), repairs)}
		}
		if !recompute {
			m.mu.Lock()
			m.repairMaps += int64(len(missing))
			m.reduceRetries += int64(len(open))
			m.mu.Unlock()
		}
		blocks := make([]int, 0, len(missing))
		for block := range missing {
			blocks = append(blocks, block)
		}
		ver, live = m.members.live()
		err = fanOut(len(blocks), func(i int) error {
			_, err := m.mapWithFailover(ver, live, m.corr("j%d.m%d", id, blocks[i]), sh.file, blocks[i:i+1], slices.Min(open), []scheduler.JobID{id}, []JobRef{ref}, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
}

// commitResult publishes a job's result and releases its stash entries,
// first trimming from the release list what every live worker has been
// told of. A worker that is away meanwhile is not told of that: what it
// stashed for those jobs stays until the next epoch, W jobs' worth at
// most (m.mu held).
func (m *Master) commitResult(rec journal.JobResultRecord) {
	j := m.jobs[rec.Job]
	if j == nil {
		j = &masterJob{}
		m.jobs[rec.Job] = j
	}
	j.result, j.shuffle = &jobResult{JobResultRecord: rec}, nil
	low := m.finishedBase + len(m.finished)
	_, live := m.members.live()
	for _, w := range live {
		low = min(low, max(m.released[w.id], m.finishedBase))
	}
	m.finished, m.finishedBase = append(m.finished[low-m.finishedBase:], rec.Job), low
}
