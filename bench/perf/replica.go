package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// The traced replica: the workload's cluster rebuilt inside this process
// (two remote.Worker on loopback TCP, a dialled remote.Master, the
// multi-file S^3 scheduler, the live admission queue and the run loop)
// with a decorator at every public seam, each recording spans. It exists
// for the per-layer table only; no end-to-end metric comes from it.

// tracer is the state the decorators share. Rounds are strictly serial,
// so one "current round" and one "current ExecRound" span are enough to
// parent everything a round causes, on the master and on the workers.
type tracer struct {
	rec      *recorder
	roundSeq atomic.Int64 // number of the round in flight (or last retired)
	curRound atomic.Int64 // span index of the round in flight, -1 between rounds
	curExec  atomic.Int64 // span index of the ExecRound in flight

	mu    sync.Mutex
	tasks []*taskTimes // map / reduce tasks built since the last drain
}

func (t *tracer) round() int { return int(t.roundSeq.Load()) }

func newTracer() *tracer {
	t := &tracer{rec: newRecorder()}
	t.curRound.Store(-1)
	t.curExec.Store(-1)
	return t
}

// tracedSched decorates scheduler.Scheduler. Embedding the concrete
// scheduler keeps its other method sets (Snapshottable, so round-committed
// records carry a snapshot as they do in cmd/s3cluster).
type tracedSched struct {
	*core.MultiFile
	t *tracer
}

func (s *tracedSched) Submit(job scheduler.JobMeta, at vclock.Time) error {
	start := s.t.rec.now()
	err := s.MultiFile.Submit(job, at)
	s.t.rec.add(span{Name: "core.submit", Lane: "master", Start: start, End: s.t.rec.now(), Parent: -1, Job: int(job.ID), Round: -1})
	return err
}

// NextRound opens the round span: a round's wall time runs from the
// moment the scheduler is asked for it to the OnRoundDone hook.
func (s *tracedSched) NextRound(now vclock.Time) (scheduler.Round, bool) {
	start := s.t.rec.now()
	r, ok := s.MultiFile.NextRound(now)
	end := s.t.rec.now()
	if !ok {
		return r, ok
	}
	seq := int(s.t.roundSeq.Add(1))
	id := s.t.rec.open(span{Name: "runtime.round", Lane: "master", Start: start, Parent: -1, Job: -1, Round: seq})
	s.t.curRound.Store(int64(id))
	s.t.rec.add(span{Name: "core.next_round", Lane: "master", Start: start, End: end, Parent: id, Job: -1, Round: seq})
	return r, ok
}

func (s *tracedSched) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	start := s.t.rec.now()
	done := s.MultiFile.RoundDone(r, now)
	s.t.rec.add(span{Name: "core.round_done", Lane: "master", Start: start, End: s.t.rec.now(),
		Parent: int(s.t.curRound.Load()), Job: -1, Round: s.t.round()})
	return done
}

// tracedExec decorates runtime.Executor.
type tracedExec struct {
	inner runtime.Executor
	t     *tracer
}

func (e *tracedExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	id := e.t.rec.open(span{Name: "remote.exec_round", Lane: "master", Start: e.t.rec.now(),
		Parent: int(e.t.curRound.Load()), Job: -1, Round: e.t.round()})
	e.t.curExec.Store(int64(id))
	d, err := e.inner.ExecRound(r)
	e.t.rec.close(id)
	e.t.curExec.Store(-1)
	e.t.drainTasks(id)
	return d, err
}

// tracedCommits is the bench's runtime.CommitLog: the same three records
// as journalCommits in cmd/s3cluster/recovery.go (lines 24-53), each
// append timed.
type tracedCommits struct {
	j *journal.Journal
	t *tracer
}

func (c *tracedCommits) RoundCommitted(r scheduler.Round, now vclock.Time, snap *scheduler.Snapshot, requeues int) {
	c.append(-1, journal.KindRoundCommitted, journal.RoundCommittedRecord{
		Segment: r.Segment, Jobs: r.JobIDs(), At: now, Requeues: requeues, Snapshot: snap,
	})
}

func (c *tracedCommits) JobDone(id scheduler.JobID, now vclock.Time) {
	c.append(int(id), journal.KindJobDone, journal.JobEndRecord{Job: id, At: now})
}

func (c *tracedCommits) JobFailed(id scheduler.JobID, now vclock.Time) {
	c.append(int(id), journal.KindJobFailed, journal.JobEndRecord{Job: id, At: now})
}

func (c *tracedCommits) append(job int, kind string, payload any) {
	start := c.t.rec.now()
	if err := c.j.AppendRecord(kind, payload); err != nil {
		fmt.Fprintf(os.Stderr, "perf: replica journal append %s: %v\n", kind, err)
	}
	c.t.rec.add(span{Name: "journal.commit_append", Lane: "master", Start: start, End: c.t.rec.now(),
		Parent: int(c.t.curRound.Load()), Job: job, Round: c.t.round()})
}

// taskTimes collects one task's user-function time. A worker builds a
// fresh mapper / combiner / reducer per task (Registry.Build in ExecMap
// and ExecReduce), so the three wrappers of one Build call share one of
// these; combiner and reducer are called once per key, far too often for
// a span each, and are summed instead.
type taskTimes struct {
	lane               string
	mapStart, mapEnd   time.Duration
	combineNs, combine int64
	reduceStart        time.Duration
	reduceNs, reduce   int64
}

type timedMapper struct {
	inner mapreduce.Mapper
	rec   *recorder
	tt    *taskTimes
}

func (m timedMapper) Map(block dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	m.tt.mapStart = m.rec.now()
	err := m.inner.Map(block, data, emit)
	m.tt.mapEnd = m.rec.now()
	return err
}

type timedReducer struct {
	inner     mapreduce.Reducer
	rec       *recorder
	tt        *taskTimes
	isCombine bool
}

func (r timedReducer) Reduce(key string, values []string, emit mapreduce.Emit) error {
	start := r.rec.now()
	err := r.inner.Reduce(key, values, emit)
	ns := int64(r.rec.now() - start)
	if r.isCombine {
		r.tt.combineNs += ns
		r.tt.combine++
	} else {
		if r.tt.reduce == 0 {
			r.tt.reduceStart = start
		}
		r.tt.reduceNs += ns
		r.tt.reduce++
	}
	return err
}

// tracedRegistry decorates every factory of the standard registry for one
// worker. Nil reducers and combiners stay nil: the engine tests for nil.
func (t *tracer) tracedRegistry(lane string) *remote.Registry {
	std := remote.NewStandardRegistry()
	reg := remote.NewRegistry()
	for _, name := range std.Names() {
		name := name
		reg.Register(name, func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
			m, r, c, err := std.Build(name, param)
			if err != nil {
				return nil, nil, nil, err
			}
			tt := &taskTimes{lane: lane}
			t.mu.Lock()
			t.tasks = append(t.tasks, tt)
			t.mu.Unlock()
			var tr, tc mapreduce.Reducer
			if r != nil {
				tr = timedReducer{inner: r, rec: t.rec, tt: tt}
			}
			if c != nil {
				tc = timedReducer{inner: c, rec: t.rec, tt: tt, isCombine: true}
			}
			return timedMapper{inner: m, rec: t.rec, tt: tt}, tr, tc, nil
		})
	}
	return reg
}

// drainTasks turns the tasks finished under one ExecRound into spans. It
// runs after ExecRound returned, when no worker touches them any more.
func (t *tracer) drainTasks(exec int) {
	t.mu.Lock()
	tasks := t.tasks
	t.tasks = nil
	t.mu.Unlock()
	for _, tt := range tasks {
		if tt.mapEnd > 0 {
			t.rec.add(span{Name: "mapreduce.map_fn", Lane: tt.lane, Start: tt.mapStart, End: tt.mapEnd, Parent: exec, Job: -1, Round: t.round()})
		}
		if tt.combine > 0 {
			// The combiner runs right after the map function on the same
			// goroutine; the span is placed there with its summed length.
			t.rec.add(span{Name: "mapreduce.combine_fn", Lane: tt.lane, Start: tt.mapEnd, End: tt.mapEnd + time.Duration(tt.combineNs),
				Parent: exec, Job: -1, Round: t.round(), Calls: int(tt.combine)})
		}
		if tt.reduce > 0 {
			t.rec.add(span{Name: "mapreduce.reduce_fn", Lane: tt.lane, Start: tt.reduceStart, End: tt.reduceStart + time.Duration(tt.reduceNs),
				Parent: exec, Job: -1, Round: t.round(), Calls: int(tt.reduce)})
		}
	}
}

// tracedStore is cmd/s3cluster's workerStore (main.go lines 102-123) with
// the block generators timed: a call to one is a physical read, the cost
// a cache miss pays.
func (t *tracer) tracedStore(lane string, s spec, seed int64) (*dfs.Store, error) {
	store, err := dfs.NewStore(1, 1)
	if err != nil {
		return nil, err
	}
	timed := func(gen func(int, int64) []byte) func(int) ([]byte, error) {
		return func(i int) ([]byte, error) {
			start := t.rec.now()
			b := gen(i, s.BlockSize)
			t.rec.add(span{Name: "dfs.read", Lane: lane, Start: start, End: t.rec.now(), Parent: int(t.curExec.Load()), Job: -1, Round: t.round()})
			return b, nil
		}
	}
	if _, err := store.AddGeneratedFile("corpus", s.Blocks, s.BlockSize, timed(workload.NewTextGen(seed).Block)); err != nil {
		return nil, err
	}
	if _, err := store.AddGeneratedFile("lineitem", s.Blocks, s.BlockSize, timed(workload.NewLineitemGen(seed).Block)); err != nil {
		return nil, err
	}
	if s.CacheMB > 0 {
		if _, err := store.EnableCachePolicy(s.CacheMB<<20, dfs.PolicyLRU); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// replicaAdmission mirrors clusterAdmission.SubmitJob and submitStage in
// cmd/s3cluster/main.go (lines 290-364) without the DAG layer: journal the
// admission, register the job's program with the master, enqueue — all
// inside the live source's pre-admission hook.
type replicaAdmission struct {
	src     *runtime.LiveSource
	master  *remote.Master
	journal *journal.Journal
	t       *tracer
}

func (a *replicaAdmission) submit(s spec, param string) (scheduler.JobID, error) {
	name := fmt.Sprintf("%s-%s", s.Factory, param)
	ref := remote.JobRef{Name: name, Factory: s.Factory, Param: param, NumReduce: s.NumReduce}
	meta := scheduler.JobMeta{Name: name, File: s.File}
	return a.src.SubmitWith(meta, func(id scheduler.JobID) error {
		if a.journal != nil {
			m := meta
			m.ID = id
			rec := journal.JobAdmittedRecord{ID: id, Name: ref.Name, Factory: ref.Factory, Param: ref.Param, NumReduce: ref.NumReduce, Meta: m}
			start := a.t.rec.now()
			err := a.journal.AppendRecord(journal.KindJobAdmitted, rec)
			a.t.rec.add(span{Name: "journal.admit_append", Lane: "master", Start: start, End: a.t.rec.now(), Parent: -1, Job: int(id), Round: -1})
			if err != nil {
				return fmt.Errorf("journaling admission: %w", err)
			}
		}
		return a.master.RegisterJob(id, ref)
	})
}

// replicaResult is the measured window of one replica run.
type replicaResult struct {
	spans       []span  // those that started inside the window
	spanSeconds float64 // length of that window
	jobs        int     // completions between the first and the last one in the window
	seconds     float64 // wall time between those two completions
	rpcUs       float64 // Master.WorkerStats round trip per worker
	journal     string  // path of the replica's journal, "" without one
	tracePath   string
}

// runReplica drives the same closed loop as the end-to-end run — W jobs
// outstanding, the next submitted the moment one completes — through the
// admission adapter, for warm-up completions and then window.
func runReplica(ctx context.Context, s spec, seed int64, warmup int, window time.Duration, dir string) (*replicaResult, error) {
	t := newTracer()
	var addrs []string
	for i := 0; i < numWorkers; i++ {
		lane := fmt.Sprintf("worker%d", i)
		store, err := t.tracedStore(lane, s, seed)
		if err != nil {
			return nil, err
		}
		w := remote.NewWorker(store, t.tracedRegistry(lane))
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer w.Close()
		addrs = append(addrs, addr)
	}
	master, err := remote.Dial(addrs, nil)
	if err != nil {
		return nil, err
	}
	defer master.Close()
	master.SetTimeScale(1e6) // as cmd/s3cluster's drive() does

	// Segment plans as in drive(): metadata only, one segment per
	// numWorkers blocks, both files.
	planStore, err := dfs.NewStore(numWorkers, 1)
	if err != nil {
		return nil, err
	}
	var plans []*dfs.SegmentPlan
	for _, name := range []string{"corpus", "lineitem"} {
		f, err := planStore.AddMetaFile(name, s.Blocks, s.BlockSize)
		if err != nil {
			return nil, err
		}
		plan, err := dfs.PlanSegments(f, numWorkers)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	mf, err := core.NewMultiFile(plans, nil)
	if err != nil {
		return nil, err
	}

	res := &replicaResult{}
	src := runtime.NewLiveSource()
	adm := &replicaAdmission{src: src, master: master, t: t}
	done := make(chan scheduler.JobID, s.InFlight) // at most InFlight jobs are outstanding, so the engine never blocks here
	opts := runtime.Options{
		Metrics: metrics.NewRunMetrics(metrics.NewRegistry()),
		Hooks: runtime.Hooks{
			OnRoundDone: func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
				if id := t.curRound.Swap(-1); id >= 0 {
					t.rec.close(int(id))
				}
				for _, id := range completed {
					done <- id
				}
			},
		},
	}
	if s.Journal {
		res.journal = filepath.Join(dir, "replica.wal")
		if err := os.Remove(res.journal); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		jnl, _, err := journal.Open(res.journal, journal.Options{Sync: journal.SyncNever})
		if err != nil {
			return nil, err
		}
		defer jnl.Close()
		master.SetJournal(jnl)
		adm.journal = jnl
		opts.Commits = &tracedCommits{j: jnl, t: t}
	}

	runDone := make(chan error, 1)
	go func() {
		_, err := runtime.Run(&tracedSched{MultiFile: mf, t: t}, &tracedExec{inner: master, t: t}, src, opts)
		runDone <- err
	}()

	params := newParamStream(s, seed)
	for i := 0; i < s.InFlight; i++ {
		if _, err := adm.submit(s, params.draw()); err != nil {
			src.Close()
			<-runDone
			return nil, err
		}
	}
	var (
		completed int
		measuring bool
		warmAt    time.Time
		lastAt    time.Time
		deadline  <-chan time.Time
		from      time.Duration // the window on the recorder's clock
	)
loop:
	for {
		select {
		case <-ctx.Done():
			src.Close()
			<-runDone
			return nil, ctx.Err()
		case err := <-runDone:
			return nil, fmt.Errorf("replica run loop ended early: %v", err)
		case <-deadline:
			break loop
		case <-done:
			now := time.Now()
			if measuring {
				res.jobs++
				lastAt = now
			} else if completed++; completed >= warmup {
				measuring = true
				warmAt = now
				from = t.rec.now()
				deadline = time.After(window)
			}
			if _, err := adm.submit(s, params.draw()); err != nil {
				src.Close()
				<-runDone
				return nil, err
			}
		}
	}
	to := t.rec.now()
	res.spanSeconds = (to - from).Seconds()
	res.seconds = lastAt.Sub(warmAt).Seconds()

	// Closing admission lets the loop drain what is in flight and return;
	// the completions it still reports must not block it.
	src.Close()
	for drained := false; !drained; {
		select {
		case <-done:
		case err := <-runDone:
			if err != nil {
				return nil, fmt.Errorf("replica run loop: %w", err)
			}
			drained = true
		}
	}

	const rpcCalls = 200
	start := time.Now()
	for i := 0; i < rpcCalls; i++ {
		if _, err := master.WorkerStats(); err != nil {
			return nil, err
		}
	}
	res.rpcUs = float64(time.Since(start).Microseconds()) / (rpcCalls * numWorkers)

	all := t.rec.snapshot()
	for _, sp := range all {
		if sp.Start >= from && sp.Start < to && sp.End > 0 {
			res.spans = append(res.spans, sp)
		}
	}
	res.tracePath = filepath.Join(dir, "trace-"+s.Name+".json")
	if err := writeChromeTrace(res.tracePath, all); err != nil {
		return nil, err
	}
	return res, nil
}
