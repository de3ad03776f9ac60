package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// JobState is a live-submitted job's lifecycle phase.
type JobState string

const (
	// JobWaiting: accepted, but held until its declared dependencies
	// complete and materialize (DAG stages).
	JobWaiting JobState = "waiting"
	// JobQueued: accepted by the admission layer, waiting for the
	// engine to hand it to the scheduler.
	JobQueued JobState = "queued"
	// JobRunning: admitted into the scheduler's current circular pass.
	JobRunning JobState = "running"
	// JobDone: completed; results are available from the executor.
	JobDone JobState = "done"
	// JobFailed: retired without running, because a dependency failed
	// or its output could not be made a file, or because
	// recovery adopted a journaled job this binary cannot run.
	JobFailed JobState = "failed"
)

// JobStatus is the one record of a job: the state the admission API
// reports and the stamps the paper's metrics are computed from. Times
// are on the run's clock: a daemon's are wall seconds since its
// journal's first master epoch, so doneAt − admittedAt is the job's
// response time, queue wait and restarts included.
type JobStatus struct {
	ID         scheduler.JobID `json:"id"`
	Name       string          `json:"name"`
	State      JobState        `json:"state"`
	AdmittedAt vclock.Time     `json:"admittedAt"`
	DoneAt     vclock.Time     `json:"doneAt"`
	// StartedAt is the launch of the first round that included the job:
	// admittedAt → startedAt is its waiting, startedAt → doneAt its
	// processing (§III-B).
	StartedAt vclock.Time `json:"-"`
	// DependsOn lists the job's declared dependencies (DAG stages);
	// empty for independent jobs.
	DependsOn []scheduler.JobID `json:"dependsOn,omitempty"`
	// seq is the job's 1-based place in the order the engine admitted or
	// resumed jobs, 0 for one it never ran; started says StartedAt is set.
	seq     int
	started bool
}

// Span implements metrics.Job.
func (j JobStatus) Span() (admitted, completed vclock.Time, done bool) {
	return j.AdmittedAt, j.DoneAt, j.State == JobDone
}

// LiveSource is the one arrival source: a thread-safe admission queue
// with the dependency graph of its jobs. Any goroutine may submit jobs
// while the engine runs a pass, and the engine merges them into the
// current circular scan at the next round boundary — the online behavior
// of the paper's Job Queue Manager (§IV, Algorithm 1). A recorded trace
// is the same queue filled before the run (RunTrace), and so is an
// s3compare cell's workload, stages in Order. It tracks each job's
// lifecycle for an admission API to report.
//
// The engine alone calls Pop, Peek, Pending, Wait and the Job* stamps,
// from its one goroutine; JobFinished and Pop materialize a finished
// producer's output once something reads it, with the lock released, so
// submissions and status reads never wait on a materialization. Each
// stage depends only on stages already accepted, so the graph is acyclic
// by construction — and a producer may have finished, unread, before its
// first reader arrives.
type LiveSource struct {
	mu   sync.Mutex
	cond *sync.Cond
	// clock, when set, stamps each job as it is queued; without one a
	// job is stamped when the engine pops it.
	clock  vclock.Clock
	queue  []Arrival // in (stamp, id) order
	status map[scheduler.JobID]*JobStatus
	order  []scheduler.JobID
	nextID scheduler.JobID
	// ran counts the jobs admitted or resumed, numbering their seq.
	ran    int
	closed bool
	// held are accepted-but-waiting jobs (DAG stages with unsettled
	// dependencies); release moves one into queue, fail retires it.
	held map[scheduler.JobID]Arrival

	g   Graph
	mat Materializer
	// unread are the stages that finished well before any reader was
	// added. Their output is no file yet, so they stay unsettled in the
	// graph and a late reader is held on them like an early one.
	unread map[scheduler.JobID]bool
	due    []scheduler.JobID // unread producers a reader has since arrived for
	err    error             // the first materialization failure
}

// NewLiveSource returns an open admission queue, without a materializer,
// whose jobs arrive when the engine pops them.
func NewLiveSource() *LiveSource { return NewLiveSourceOn(nil, nil) }

// NewLiveSourceOn returns an open admission queue that stamps each job
// from clock when it is queued — submitted, or released from hold — so
// its wait for the run loop counts toward its response time. clock must
// be the run's Options.Clock; nil stamps each job when the engine pops
// it. mat materializes a finished producer's output before its readers
// are released; it may be nil only when no stage has dependencies.
func NewLiveSourceOn(clock vclock.Clock, mat Materializer) *LiveSource {
	s := &LiveSource{
		clock:  clock,
		status: make(map[scheduler.JobID]*JobStatus),
		nextID: 1,
		held:   make(map[scheduler.JobID]Arrival),
		mat:    mat,
		unread: make(map[scheduler.JobID]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SubmitWith enqueues a job for admission. A zero meta.ID is assigned
// the next free id; a caller-chosen id must be unique across the
// source's lifetime. Safe for concurrent use. pre, if not nil, is
// invoked — under the source's lock, before the job becomes visible to
// the engine — with the assigned id. Callers use it to register per-id
// execution state (e.g. a remote JobRef) without racing the scheduler:
// if pre fails, the job is not enqueued and its id is not consumed.
func (s *LiveSource) SubmitWith(meta scheduler.JobMeta, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	return s.SubmitStage(Arrival{Job: meta}, nil, pre)
}

// SubmitStage is the one submit path. a.At is a lower bound: the job is
// stamped at max(a.At, the clock's now) when it is queued. deps must
// name accepted jobs, once each. A stage with a failed dependency is
// refused with ErrDoomed, before pre runs; one with an unfinished
// dependency is held in "waiting" state until its last producer's
// output is a file; any other is queued at once — and if a dependency
// finished unread, the engine's next Pop materializes that before the
// stage is delivered. pre behaves as in SubmitWith.
func (s *LiveSource) SubmitStage(a Arrival, deps []scheduler.JobID, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := &a.Job
	if _, err := s.g.Check(meta.ID, deps); err != nil {
		return 0, err
	}
	switch {
	case len(deps) > 0 && s.mat == nil:
		return 0, fmt.Errorf("runtime: stage %q has dependencies but the source has no materializer", meta.Name)
	case s.closed:
		return 0, fmt.Errorf("runtime: admission queue is closed")
	case a.At < 0:
		return 0, fmt.Errorf("runtime: job %d arrives at negative time %v", meta.ID, a.At)
	case meta.ID < 0:
		return 0, fmt.Errorf("runtime: negative job id %d", meta.ID)
	case meta.ID == 0:
		meta.ID = s.nextID
	}
	if pre != nil {
		if err := pre(meta.ID); err != nil {
			return 0, err
		}
	}
	if meta.ID >= s.nextID {
		s.nextID = meta.ID + 1
	}
	hold := slices.ContainsFunc(deps, func(dep scheduler.JobID) bool { return !s.g.Settled(dep) && !s.unread[dep] })
	s.g.insert(meta.ID, deps)
	for _, dep := range deps {
		if s.unread[dep] {
			s.due = append(s.due, dep)
		}
	}
	s.status[meta.ID] = &JobStatus{ID: meta.ID, Name: meta.Name, State: JobWaiting, DependsOn: slices.Clone(deps)}
	s.order = append(s.order, meta.ID)
	if hold {
		s.held[meta.ID] = a
	} else {
		s.enqueue(a)
	}
	return meta.ID, nil
}

// release moves a held job into the admission queue no earlier than at,
// waking a parked engine; a job the graph releases that is not held —
// queued at once, because its producers had only to be materialized —
// stays where it is. It works after Close: held jobs whose dependencies
// complete during drain still run. The caller holds s.mu.
func (s *LiveSource) release(id scheduler.JobID, at vclock.Time) {
	a, ok := s.held[id]
	if !ok {
		return
	}
	delete(s.held, id)
	a.At = max(a.At, at)
	s.enqueue(a)
}

// enqueue queues a in its (stamp, id) place — stamped, when the source
// has a clock, no earlier than now, with the time its status reports as
// admittedAt — and wakes a parked engine. The caller holds s.mu.
func (s *LiveSource) enqueue(a Arrival) {
	if s.clock != nil {
		a.At = max(a.At, s.clock.Now())
	}
	st := s.status[a.Job.ID]
	st.State = JobQueued
	st.AdmittedAt = a.At
	i := sort.Search(len(s.queue), func(k int) bool {
		q := s.queue[k]
		return q.At > a.At || q.At == a.At && q.Job.ID > a.Job.ID
	})
	s.queue = slices.Insert(s.queue, i, a)
	s.cond.Broadcast()
}

// fail retires a job the engine has not seen yet, held or queued,
// without admitting it — a dependency's output could not be made a
// file, so the job's input will never exist. The caller holds s.mu.
func (s *LiveSource) fail(id scheduler.JobID, at vclock.Time) {
	if _, held := s.held[id]; held {
		delete(s.held, id)
	} else if i := slices.IndexFunc(s.queue, func(a Arrival) bool { return a.Job.ID == id }); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	} else {
		return
	}
	s.status[id].State = JobFailed
	s.status[id].DoneAt = at
}

// settle settles a stage the engine reports finished at at, once: a
// finished stage with readers is materialized — with s.mu released, so
// submissions and status reads go on meanwhile — and its readers are
// released no earlier than the finish plus the materialization delay,
// or, when it cannot become a file, failed with their cone; one without
// readers is left unread. Runs on the engine goroutine with s.mu held.
func (s *LiveSource) settle(id scheduler.JobID, at vclock.Time) {
	switch {
	case s.g.Settled(id):
		return
	case !s.g.Waited(id):
		s.unread[id] = true
		return
	}
	// Neither settled nor unread: a stage submitted meanwhile is held
	// on id, and released or failed below with the others.
	delete(s.unread, id)
	s.mu.Unlock()
	delay, err := s.mat(id, at)
	s.mu.Lock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("runtime: materializing stage %d output: %w", id, err)
		}
		for _, cid := range s.g.Fail(id) {
			s.fail(cid, at)
		}
		return
	}
	for _, cid := range s.g.Done(id) {
		s.release(cid, at.Add(delay))
	}
}

// Adopt installs a status entry for a journal-recovered job without
// queueing it for admission, so that later stages may depend on it: a
// running one is already inside the restored scheduler, admitted at
// admittedAt, and the engine resumes it; a settled one only needs its
// terminal state visible to the admission API. made says a done job's
// output is a file already — recovery replays stage-materialized
// records itself — so its readers need no second materialization. The
// id is reserved so later Submits cannot collide with it.
func (s *LiveSource) Adopt(meta scheduler.JobMeta, state JobState, admittedAt, doneAt vclock.Time, made bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("runtime: admission queue is closed")
	}
	if meta.ID == 0 {
		return fmt.Errorf("runtime: cannot adopt a job without an id")
	}
	if _, err := s.g.Add(meta.ID, nil); err != nil {
		return err
	}
	switch {
	case state == JobFailed:
		s.g.Fail(meta.ID)
	case state == JobDone && made:
		s.g.Done(meta.ID)
	case state == JobDone:
		s.unread[meta.ID] = true
	}
	if meta.ID >= s.nextID {
		s.nextID = meta.ID + 1
	}
	s.status[meta.ID] = &JobStatus{
		ID:         meta.ID,
		Name:       meta.Name,
		State:      state,
		AdmittedAt: admittedAt,
		DoneAt:     doneAt,
	}
	if state == JobRunning {
		s.ran++
		s.status[meta.ID].seq = s.ran
	}
	s.order = append(s.order, meta.ID)
	return nil
}

// Err reports why the DAG did not run to its end, after a run: the first
// materialization failure — the stages that failed with it were never
// admitted, so run metrics do not include them — else the stages still
// held, which takes a producer that never finished. nil after a clean
// run.
func (s *LiveSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if len(s.held) > 0 {
		return fmt.Errorf("runtime: %d DAG stages never became ready", len(s.held))
	}
	return nil
}

// Close marks the source finished: queued jobs still drain, new
// Submits fail, and the engine exits once everything admitted has
// completed. Safe to call more than once.
func (s *LiveSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// Pop removes and returns the jobs stamped at or before now, in (stamp,
// id) order. Without a clock each is stamped now: it "arrives" the
// moment the loop admits it. First it settles the unread producers a
// reader has arrived for: the engine calls it with the scheduler idle
// (no round in flight), so a late reader's derived input file is
// registered by the time its Submit runs — or, when it cannot be, the
// reader has failed with its cone and is not delivered.
func (s *LiveSource) Pop(now vclock.Time) []Arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.due) > 0 {
		pid := s.due[0]
		s.due = s.due[1:]
		s.settle(pid, now)
	}
	s.due = nil
	n := sort.Search(len(s.queue), func(i int) bool { return s.queue[i].At > now })
	if n == 0 {
		return nil
	}
	out := slices.Clone(s.queue[:n])
	if s.clock == nil {
		for i := range out {
			out[i].At = now
		}
	}
	s.queue = append(s.queue[:0], s.queue[n:]...)
	return out
}

// Peek reports the earliest queued job's stamp; without a clock, its
// lower bound.
func (s *LiveSource) Peek() (vclock.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].At, true
}

// Pending reports the admission-queue depth.
func (s *LiveSource) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Wait parks until a job is queued or the source is closed, returning
// false only when closed with nothing left to deliver.
func (s *LiveSource) Wait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	return len(s.queue) > 0
}

// JobAdmitted fires when a queued job enters the scheduler, JobsStarted
// when a round including ids launches, and JobFinished when a job
// completes; the engine calls each synchronously from the run loop, once
// per event. JobsStarted returns the waiting interval (admission to this
// launch) of each job no earlier round included, in ids order, and
// JobFinished the job's response time. Each fails on a job out of step:
// unknown, admitted or finished twice, or stamped before its admission.
func (s *LiveSource) JobAdmitted(id scheduler.JobID, at vclock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.stamp(id, JobQueued, at)
	if err != nil {
		return err
	}
	s.ran++
	st.seq = s.ran
	st.State = JobRunning
	st.AdmittedAt = at
	return nil
}

// JobsStarted: see JobAdmitted.
func (s *LiveSource) JobsStarted(ids []scheduler.JobID, at vclock.Time) ([]vclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var waits []vclock.Duration
	for _, id := range ids {
		st, err := s.stamp(id, JobRunning, at)
		if err != nil {
			return nil, err
		}
		if !st.started {
			st.started = true
			st.StartedAt = at
			waits = append(waits, at.Sub(st.AdmittedAt))
		}
	}
	return waits, nil
}

// JobFinished records the job done, then settles it: materializes its
// output if a stage reads it and releases the readers, or fails them
// when it cannot be materialized — before it returns, inside the
// engine's round settlement, so releases are visible before the engine
// looks for its next arrival. See JobAdmitted.
func (s *LiveSource) JobFinished(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.stamp(id, JobRunning, at)
	if err != nil {
		return 0, err
	}
	st.State = JobDone
	st.DoneAt = at
	rt := at.Sub(st.AdmittedAt)
	s.settle(id, at)
	return rt, nil
}

// stamp returns id's record for an event at at, refusing an unknown id,
// one not in state want, and a time before the job's admission (or, for
// a queued job, its queue stamp). The caller holds s.mu.
func (s *LiveSource) stamp(id scheduler.JobID, want JobState, at vclock.Time) (*JobStatus, error) {
	st, ok := s.status[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("runtime: job %d was never submitted", id)
	case st.State != want:
		return nil, fmt.Errorf("runtime: job %d is %s, not %s", id, st.State, want)
	case at < st.AdmittedAt:
		return nil, fmt.Errorf("runtime: job %d stamped at %v, before its admission at %v", id, at, st.AdmittedAt)
	}
	return st, nil
}

// Status reports one job's lifecycle state.
func (s *LiveSource) Status(id scheduler.JobID) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.status[id]
	if !ok {
		return JobStatus{}, false
	}
	return *st, true
}

// Jobs returns every submitted job's status in submission order.
func (s *LiveSource) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.status[id])
	}
	return out
}
