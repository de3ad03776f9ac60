package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// ArrivalSource feeds job submissions into the engine and hears back
// from it. The engine is the only caller of these methods and calls
// them from its single goroutine; an implementation that accepts jobs
// from other goroutines (LiveSource) synchronizes internally.
type ArrivalSource interface {
	// Pop removes and returns every arrival due at or before now, each
	// stamped with its admission time (<= now). A live queue without a
	// clock stamps its jobs with now.
	Pop(now vclock.Time) []Arrival
	// Peek reports the time of the earliest queued arrival (ok=false
	// when nothing is queued right now). The engine clamps a time
	// already passed to now.
	Peek() (at vclock.Time, ok bool)
	// Pending reports how many accepted jobs await admission.
	Pending() int
	// Wait blocks until the source has a queued arrival or will never
	// produce one again, returning false in the latter case. The
	// engine calls it only when the scheduler is idle and no timer is
	// pending, so a live daemon parks here between submissions.
	Wait() bool
	// JobAdmitted fires when a queued job enters the scheduler,
	// JobsStarted when a round including ids launches, and JobFinished
	// when a job completes; the engine calls each synchronously from the
	// run loop, once per event. JobsStarted returns the waiting interval
	// (admission to this launch) of each job no earlier round included,
	// in ids order, and JobFinished the job's response time. Each fails
	// on a job out of step: unknown, admitted or finished twice, or
	// stamped before its admission.
	JobAdmitted(id scheduler.JobID, at vclock.Time) error
	JobsStarted(ids []scheduler.JobID, at vclock.Time) ([]vclock.Duration, error)
	JobFinished(id scheduler.JobID, at vclock.Time) (vclock.Duration, error)
	// Jobs returns every job's record in submission order; the engine
	// resumes those running when it starts and reports the ones it ran.
	Jobs() []JobStatus
}

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
	// or its output could not be made a file (Fail), or because
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

// LiveSource is the one arrival source: a thread-safe admission queue.
// Any goroutine may Submit jobs while the engine runs a pass, and the
// engine merges them into the current circular scan at the next round
// boundary — the online behavior of the paper's Job Queue Manager (§IV,
// Algorithm 1). A recorded trace is the same queue filled before the run
// (RunTrace). It tracks each job's lifecycle for an admission API to
// report.
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
	// dependencies); Release moves one into queue, Fail retires it.
	held map[scheduler.JobID]Arrival
}

// NewLiveSource returns an open admission queue whose jobs arrive when
// the engine pops them.
func NewLiveSource() *LiveSource { return NewLiveSourceOn(nil) }

// NewLiveSourceOn returns an open admission queue that stamps each job
// from clock when it is queued — submitted, or released from hold — so
// its wait for the run loop counts toward its response time. clock must
// be the run's Options.Clock; nil is NewLiveSource.
func NewLiveSourceOn(clock vclock.Clock) *LiveSource {
	s := &LiveSource{
		clock:  clock,
		status: make(map[scheduler.JobID]*JobStatus),
		nextID: 1,
		held:   make(map[scheduler.JobID]Arrival),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Submit enqueues a job for admission. A zero meta.ID is assigned the
// next free id; a caller-chosen id must be unique across the source's
// lifetime. Safe for concurrent use.
func (s *LiveSource) Submit(meta scheduler.JobMeta) (scheduler.JobID, error) {
	return s.SubmitWith(meta, nil)
}

// SubmitWith is Submit with a pre-admission callback invoked — under
// the source's lock, before the job becomes visible to the engine —
// with the assigned id. Callers use it to register per-id execution
// state (e.g. a remote JobRef) without racing the scheduler: if pre
// fails, the job is not enqueued and its id is not consumed.
func (s *LiveSource) SubmitWith(meta scheduler.JobMeta, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	return s.SubmitStage(Arrival{Job: meta}, nil, false, pre)
}

// SubmitStage is the one submit path. a.At is a lower bound: the job is
// stamped at max(a.At, the clock's now) when it is queued. deps is
// recorded on the status for the admission API; the source does not
// interpret it. With hold the job is accepted without being queued: it
// is parked in "waiting" state until Release hands it to the engine or
// Fail retires it — which of the two, and when, the dependency graph of
// pipeline.LiveDAG decides.
func (s *LiveSource) SubmitStage(a Arrival, deps []scheduler.JobID, hold bool, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := &a.Job
	switch {
	case s.closed:
		return 0, fmt.Errorf("runtime: admission queue is closed")
	case a.At < 0:
		return 0, fmt.Errorf("runtime: job %d arrives at negative time %v", meta.ID, a.At)
	case meta.ID < 0:
		return 0, fmt.Errorf("runtime: negative job id %d", meta.ID)
	case meta.ID == 0:
		meta.ID = s.nextID
	case s.status[meta.ID] != nil:
		return 0, fmt.Errorf("runtime: job %d: %w", meta.ID, scheduler.ErrDuplicateJob)
	}
	if pre != nil {
		if err := pre(meta.ID); err != nil {
			return 0, err
		}
	}
	if meta.ID >= s.nextID {
		s.nextID = meta.ID + 1
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

// Release moves a held job into the admission queue no earlier than at,
// waking a parked engine. It works after Close — held jobs whose
// dependencies complete during drain still run; only *new* submissions
// are refused.
func (s *LiveSource) Release(id scheduler.JobID, at vclock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.held[id]
	if !ok {
		return fmt.Errorf("runtime: job %d is not held", id)
	}
	delete(s.held, id)
	a.At = max(a.At, at)
	s.enqueue(a)
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

// Fail retires a job the engine has not seen yet, held or queued,
// without admitting it — a dependency failed or its output could not
// be made a file, so the job's input will never exist.
func (s *LiveSource) Fail(id scheduler.JobID, at vclock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, held := s.held[id]; held {
		delete(s.held, id)
	} else if i := slices.IndexFunc(s.queue, func(a Arrival) bool { return a.Job.ID == id }); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	} else {
		return fmt.Errorf("runtime: job %d is neither held nor queued", id)
	}
	s.status[id].State = JobFailed
	s.status[id].DoneAt = at
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

// Pop removes the jobs stamped at or before now. Without a clock each
// is stamped now: it "arrives" the moment the loop admits it.
func (s *LiveSource) Pop(now vclock.Time) []Arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// JobAdmitted implements ArrivalSource.
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

// JobsStarted implements ArrivalSource.
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

// JobFinished implements ArrivalSource.
func (s *LiveSource) JobFinished(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.stamp(id, JobRunning, at)
	if err != nil {
		return 0, err
	}
	st.State = JobDone
	st.DoneAt = at
	return at.Sub(st.AdmittedAt), nil
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

// Adopt installs a status entry for a journal-recovered job without
// queueing it for admission: a running one is already inside the
// restored scheduler, admitted at admittedAt, and the engine resumes it;
// a settled one only needs its terminal state visible to the admission
// API. The id is reserved so later Submits cannot collide with it.
func (s *LiveSource) Adopt(meta scheduler.JobMeta, state JobState, admittedAt, doneAt vclock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("runtime: admission queue is closed")
	}
	if meta.ID == 0 {
		return fmt.Errorf("runtime: cannot adopt a job without an id")
	}
	if _, dup := s.status[meta.ID]; dup {
		return fmt.Errorf("runtime: job %d: %w", meta.ID, scheduler.ErrDuplicateJob)
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
