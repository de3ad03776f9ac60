package pipeline

import (
	"fmt"
	"slices"
	"sync"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// LiveDAG is the arrival source of every run with dependencies: the
// graph over a runtime.LiveSource, under a lock. An s3cluster daemon
// hands it the engine, so chained POST /jobs submissions pipeline
// through the live circular pass; an s3compare cell fills it with its
// workload's stages, in pipeline.Order, before the run.
//
// The DAG need not be known up front: each stage depends only on stages
// already accepted, so the graph is acyclic by construction — and a
// producer may have finished, unread, before its first reader arrives.
type LiveDAG struct {
	src *runtime.LiveSource
	mu  sync.Mutex
	tracker
	due []scheduler.JobID // unread producers a reader has since arrived for
}

var _ runtime.ArrivalSource = (*LiveDAG)(nil)

// NewLiveDAG wraps src. mat materializes a finished producer's output
// before its dependents are released; it runs on the engine goroutine,
// and may be nil only when no stage has dependencies.
func NewLiveDAG(src *runtime.LiveSource, mat Materializer) *LiveDAG {
	return &LiveDAG{src: src, tracker: tracker{mat: mat, unread: make(map[scheduler.JobID]bool)}}
}

// SubmitStage accepts a job with dependencies, which must name
// already-accepted jobs, once each; a.At is the stage's lower bound, as
// in LiveSource.SubmitStage. One with a failed dependency is refused
// with ErrDoomed, before pre runs; one with an unfinished dependency is
// held and the status API reports it "waiting"; any other is queued at
// once — and if a dependency finished unread, the engine it wakes
// materializes that in Pop before the stage is delivered. pre behaves
// as in LiveSource.SubmitWith.
func (d *LiveDAG) SubmitStage(a runtime.Arrival, deps []scheduler.JobID, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.g.Check(a.Job.ID, deps); err != nil {
		return 0, err
	}
	if len(deps) > 0 && d.mat == nil {
		return 0, fmt.Errorf("pipeline: stage %q has dependencies but the DAG has no materializer", a.Job.Name)
	}
	unfinished := func(dep scheduler.JobID) bool { return !d.g.Settled(dep) && !d.unread[dep] }
	id, err := d.src.SubmitStage(a, deps, slices.ContainsFunc(deps, unfinished), pre)
	if err != nil {
		return 0, err
	}
	if _, err := d.g.Add(id, deps); err != nil {
		return 0, err // the source handed out an id the graph has: a bug
	}
	for _, dep := range deps {
		if d.unread[dep] {
			d.due = append(d.due, dep)
		}
	}
	return id, nil
}

// Adopt seeds a journal-recovered stage, so that later stages may
// depend on it: one the restored scheduler is running again, admitted at
// admittedAt, or a settled one that only needs its terminal state back.
// made says a done stage's output is a file already — recovery replays
// stage-materialized records itself — so its readers need no second
// materialization.
func (d *LiveDAG) Adopt(meta scheduler.JobMeta, state runtime.JobState, admittedAt, doneAt vclock.Time, made bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.src.Adopt(meta, state, admittedAt, doneAt); err != nil {
		return err
	}
	if _, err := d.g.Add(meta.ID, nil); err != nil {
		return err
	}
	switch {
	case state == runtime.JobFailed:
		d.g.Fail(meta.ID)
	case state == runtime.JobDone && made:
		d.g.Done(meta.ID)
	case state == runtime.JobDone:
		d.unread[meta.ID] = true
	}
	return nil
}

// Pop implements runtime.ArrivalSource. Before delegating it settles
// the unread producers a reader has arrived for: it runs on the engine
// goroutine with the scheduler idle (no round in flight), and before
// any queued arrival is submitted, so a late consumer's derived input
// file is registered by the time its Submit runs — or, when it cannot
// be, the consumer has failed with its cone and is not delivered.
func (d *LiveDAG) Pop(now vclock.Time) []runtime.Arrival {
	d.mu.Lock()
	for _, pid := range d.due {
		d.settle(pid, now)
	}
	d.due = nil
	d.mu.Unlock()
	return d.src.Pop(now)
}

// Peek implements runtime.ArrivalSource.
func (d *LiveDAG) Peek() (vclock.Time, bool) { return d.src.Peek() }

// Pending implements runtime.ArrivalSource.
func (d *LiveDAG) Pending() int { return d.src.Pending() }

// Wait implements runtime.ArrivalSource.
func (d *LiveDAG) Wait() bool { return d.src.Wait() }

// JobAdmitted implements runtime.ArrivalSource.
func (d *LiveDAG) JobAdmitted(id scheduler.JobID, at vclock.Time) error {
	return d.src.JobAdmitted(id, at)
}

// JobsStarted implements runtime.ArrivalSource.
func (d *LiveDAG) JobsStarted(ids []scheduler.JobID, at vclock.Time) ([]vclock.Duration, error) {
	return d.src.JobsStarted(ids, at)
}

// Jobs implements runtime.ArrivalSource.
func (d *LiveDAG) Jobs() []runtime.JobStatus { return d.src.Jobs() }

// JobFinished implements runtime.ArrivalSource: record the job done on
// the status API, then settle dependents — materialize the output if
// anyone waits on it and release satisfied stages, or cascade-fail them
// when it cannot be materialized. Runs on the engine goroutine,
// synchronously inside round settlement, so releases are visible
// before the engine looks for its next arrival.
func (d *LiveDAG) JobFinished(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
	rt, err := d.src.JobFinished(id, at)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settle(id, at)
	return rt, nil
}

// settle passes what a finished stage releases and fails on to the
// source; a released stage is queued no earlier than the finish plus
// the materialization delay. Its errors are dropped: a stage queued
// because its producers had only to be materialized is not held, so
// releasing it is refused.
func (d *LiveDAG) settle(id scheduler.JobID, at vclock.Time) {
	released, ready, cone := d.finished(id, at)
	for _, cid := range cone {
		_ = d.src.Fail(cid, at)
	}
	for _, cid := range released {
		_ = d.src.Release(cid, ready)
	}
}

// Err reports why the DAG did not run to its end, after a run: the first
// materialization failure — the stages that failed with it were never
// admitted, so run metrics do not include them — else the stages still
// held, which takes a producer that never finished. nil after a clean
// run.
func (d *LiveDAG) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	held := 0
	for _, st := range d.src.Jobs() {
		if st.State == runtime.JobWaiting {
			held++
		}
	}
	if held > 0 {
		return fmt.Errorf("pipeline: %d DAG stages never became ready", held)
	}
	return nil
}
