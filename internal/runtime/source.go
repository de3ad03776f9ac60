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

// outcome is where a job stands in the dependency graph: whether its
// output is, or will be, a file its readers can scan.
type outcome uint8

const (
	open   outcome = iota // unsettled: a stage added on it is held
	unread                // done with no reader: unsettled, but a reader is queued and Pop makes the file
	made                  // settled: the output is a file
	lost                  // settled: the job failed, or its output cannot be made a file
)

// record is the source's one record of a job, kept for its lifetime:
// the status it reports and its place in the dependency graph. held is
// its arrival while it waits on an open producer (JobWaiting); waits
// counts its unsettled producers; users are the stages added while it
// was unsettled, released or failed as it settles.
type record struct {
	JobStatus
	out   outcome
	held  *Arrival
	waits int
	users []scheduler.JobID
}

func (r *record) settled() bool { return r.out >= made }

// LiveSource is the one arrival source: a thread-safe admission queue
// with the dependency graph of its jobs, one record a job. Any goroutine
// may submit jobs while the engine runs a pass, and the engine merges them into the
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
// first reader arrives. A producer settles once, made or lost, and its
// readers are released or fail with it, a failure cascading depth
// first.
type LiveSource struct {
	mu   sync.Mutex
	cond *sync.Cond
	// clock, when set, stamps each job as it is queued; without one a
	// job is stamped when the engine pops it.
	clock  vclock.Clock
	queue  []Arrival // in (stamp, id) order
	status map[scheduler.JobID]*record
	order  []scheduler.JobID
	nextID scheduler.JobID
	// ran counts the jobs admitted or resumed, numbering their seq.
	ran    int
	closed bool

	mat Materializer
	due []scheduler.JobID // unread producers a reader has since arrived for
	err error             // the first materialization failure
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
		status: make(map[scheduler.JobID]*record),
		nextID: 1,
		mat:    mat,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SubmitWith enqueues a job for admission. A zero meta.ID is assigned
// the next free id; a caller-chosen id must be unique across the
// source's lifetime: the source refuses a reused one, an ended job's
// included (scheduler.ErrDuplicateJob; schedulers forget ended jobs).
// Safe for concurrent use. pre, if not nil, is
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
	if err := s.check(meta.ID, deps); err != nil {
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
	r := &record{JobStatus: JobStatus{ID: meta.ID, Name: meta.Name, State: JobWaiting, DependsOn: slices.Clone(deps)}}
	s.status[meta.ID] = r
	s.order = append(s.order, meta.ID)
	hold := false
	for _, dep := range deps {
		if p := s.status[dep]; !p.settled() {
			hold = hold || p.out == open
			if p.out == unread {
				s.due = append(s.due, dep)
			}
			r.waits++
			p.users = append(p.users, meta.ID)
		}
	}
	if hold {
		held := a
		r.held = &held
	} else {
		s.enqueue(a)
	}
	return meta.ID, nil
}

// check refuses a new stage: a reused id, a bad edge (CheckEdges) or a
// failed producer (ErrDoomed). id may be zero for a stage that has no id
// yet. The caller holds s.mu.
func (s *LiveSource) check(id scheduler.JobID, deps []scheduler.JobID) error {
	if s.status[id] != nil {
		return fmt.Errorf("runtime: duplicate stage id %d: %w", id, scheduler.ErrDuplicateJob)
	}
	if err := CheckEdges(id, deps, func(dep scheduler.JobID) bool { return s.status[dep] != nil }); err != nil {
		return fmt.Errorf("runtime: new stage %w", err)
	}
	for _, dep := range deps {
		if s.status[dep].out == lost {
			return fmt.Errorf("%w (job %d)", ErrDoomed, dep)
		}
	}
	return nil
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
	r := s.status[id]
	if r.held != nil {
		r.held = nil
	} else if i := slices.IndexFunc(s.queue, func(a Arrival) bool { return a.Job.ID == id }); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	} else {
		return
	}
	r.State = JobFailed
	r.DoneAt = at
}

// doom settles r as lost and returns the cone that fails with it: every
// unsettled stage held on it, and on those, depth first. The stages of
// the cone are settled as lost too; doom of a settled job returns
// nothing. The caller holds s.mu.
func (s *LiveSource) doom(r *record) (cone []scheduler.JobID) {
	if r.settled() {
		return nil
	}
	r.out = lost
	for _, uid := range r.users {
		if u := s.status[uid]; !u.settled() {
			cone = append(append(cone, uid), s.doom(u)...)
		}
	}
	r.users = nil
	return cone
}

// settle settles a stage the engine reports finished at at, once: a
// finished stage with readers is materialized — with s.mu released, so
// submissions and status reads go on meanwhile — and its readers are
// released no earlier than the finish plus the materialization delay,
// or, when it cannot become a file, failed with their cone; one without
// readers is left unread. Runs on the engine goroutine with s.mu held.
func (s *LiveSource) settle(id scheduler.JobID, at vclock.Time) {
	r := s.status[id]
	switch {
	case r.settled():
		return
	case len(r.users) == 0:
		r.out = unread
		return
	}
	// Open again while it materializes: a stage submitted meanwhile is
	// held on id, and released or failed below with the others.
	r.out = open
	s.mu.Unlock()
	delay, err := s.mat(id, at)
	s.mu.Lock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("runtime: materializing stage %d output: %w", id, err)
		}
		for _, cid := range s.doom(r) {
			s.fail(cid, at)
		}
		return
	}
	// Release the held readers it was the last producer of, even after
	// Close; one queued at once, its producers only to be made, stays.
	r.out = made
	for _, uid := range r.users {
		if u := s.status[uid]; !u.settled() {
			if u.waits--; u.waits == 0 && u.held != nil {
				a := *u.held
				u.held = nil
				a.At = max(a.At, at.Add(delay))
				s.enqueue(a)
			}
		}
	}
	r.users = nil
}

// Adopt installs a status entry for a journal-recovered job without
// queueing it for admission, so that later stages may depend on it: a
// running one is already inside the restored scheduler, admitted at
// admittedAt, and the engine resumes it; a settled one only needs its
// terminal state visible to the admission API. isFile says a done job's
// output is a file already — recovery replays stage-materialized
// records itself — so its readers need no second materialization. The
// id is reserved so later Submits cannot collide with it.
func (s *LiveSource) Adopt(meta scheduler.JobMeta, state JobState, admittedAt, doneAt vclock.Time, isFile bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("runtime: admission queue is closed")
	}
	if meta.ID == 0 {
		return fmt.Errorf("runtime: cannot adopt a job without an id")
	}
	if err := s.check(meta.ID, nil); err != nil {
		return err
	}
	r := &record{JobStatus: JobStatus{
		ID:         meta.ID,
		Name:       meta.Name,
		State:      state,
		AdmittedAt: admittedAt,
		DoneAt:     doneAt,
	}}
	switch {
	case state == JobFailed:
		r.out = lost
	case state == JobDone && isFile:
		r.out = made
	case state == JobDone:
		r.out = unread
	}
	if meta.ID >= s.nextID {
		s.nextID = meta.ID + 1
	}
	s.status[meta.ID] = r
	if state == JobRunning {
		s.ran++
		r.seq = s.ran
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
	held := 0
	for _, r := range s.status {
		if r.held != nil {
			held++
		}
	}
	if held > 0 {
		return fmt.Errorf("runtime: %d DAG stages never became ready", held)
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
	return &st.JobStatus, nil
}

// Status reports one job's lifecycle state.
func (s *LiveSource) Status(id scheduler.JobID) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.status[id]
	if !ok {
		return JobStatus{}, false
	}
	return st.JobStatus, true
}

// Jobs returns every submitted job's status in submission order.
func (s *LiveSource) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.status[id].JobStatus)
	}
	return out
}
