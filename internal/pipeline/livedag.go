package pipeline

import (
	"slices"
	"sync"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// LiveDAG is the daemon-mode arrival source: the graph over a
// runtime.LiveSource, under a lock. It is what an s3cluster daemon
// hands the engine, so chained POST /jobs submissions pipeline through
// the live circular pass.
//
// Unlike the batch Coordinator, the DAG here is not known up front:
// stages arrive one POST at a time, each depending only on stages
// already accepted, so the graph is acyclic by construction — and a
// producer may have finished, unread, before its first reader arrives.
type LiveDAG struct {
	src *runtime.LiveSource
	mu  sync.Mutex
	tracker
	due []scheduler.JobID // unread producers a reader has since arrived for
}

var (
	_ runtime.ArrivalSource = (*LiveDAG)(nil)
	_ runtime.JobTracker    = (*LiveDAG)(nil)
)

// NewLiveDAG wraps src. mat materializes a finished producer's output
// before its dependents are released; it runs on the engine goroutine.
func NewLiveDAG(src *runtime.LiveSource, mat Materializer) *LiveDAG {
	return &LiveDAG{src: src, tracker: tracker{mat: mat, unread: make(map[scheduler.JobID]bool)}}
}

// SubmitStage accepts a job with dependencies, which must name
// already-accepted jobs, once each. One with a failed dependency is
// refused with ErrDoomed, before pre runs; one with an unfinished
// dependency is held and the status API reports it "waiting"; any other
// is queued at once — and if a dependency finished unread, the engine
// it wakes materializes that in Pop before the stage is delivered. pre
// behaves as in LiveSource.SubmitWith.
func (d *LiveDAG) SubmitStage(meta scheduler.JobMeta, deps []scheduler.JobID, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.g.Check(meta.ID, deps); err != nil {
		return 0, err
	}
	unfinished := func(dep scheduler.JobID) bool { return !d.g.Settled(dep) && !d.unread[dep] }
	id, err := d.src.SubmitStage(meta, deps, slices.ContainsFunc(deps, unfinished), pre)
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
// depend on it: one the restored scheduler is running again, or a
// settled one that only needs its terminal state back. made says a done
// stage's output is a file already — recovery replays stage-materialized
// records itself — so its readers need no second materialization.
func (d *LiveDAG) Adopt(meta scheduler.JobMeta, state runtime.JobState, doneAt vclock.Time, made bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.src.Adopt(meta, state, 0, doneAt); err != nil {
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

// JobAdmitted implements runtime.JobTracker.
func (d *LiveDAG) JobAdmitted(id scheduler.JobID, at vclock.Time) { d.src.JobAdmitted(id, at) }

// JobFinished implements runtime.JobTracker: record the job done on
// the status API, then settle dependents — materialize the output if
// anyone waits on it and release satisfied stages, or cascade-fail them
// when it cannot be materialized. Runs on the engine goroutine,
// synchronously inside round settlement, so releases are visible
// before the engine looks for its next arrival.
func (d *LiveDAG) JobFinished(id scheduler.JobID, at vclock.Time) {
	d.src.JobFinished(id, at)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settle(id, at)
}

// settle passes what a finished stage releases and fails on to the
// source. Its errors are dropped: a stage queued because its producers
// had only to be materialized is not held, so releasing it is refused.
func (d *LiveDAG) settle(id scheduler.JobID, at vclock.Time) {
	released, _, cone := d.finished(id, at)
	for _, cid := range cone {
		_ = d.src.Fail(cid, at)
	}
	for _, cid := range released {
		_ = d.src.Release(cid)
	}
}
