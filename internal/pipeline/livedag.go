package pipeline

import (
	"fmt"
	"sync"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// LiveDAG is the daemon-mode DAG coordinator: a thread-safe layer over
// runtime.LiveSource that holds dependent jobs in "waiting" state and
// releases (or cascade-fails) them as their dependencies settle. It is
// what an s3cluster daemon hands the engine as its arrival source, so
// chained POST /jobs submissions pipeline through the live circular
// pass.
//
// Unlike the batch Coordinator, the DAG here is not known up front:
// stages arrive one POST at a time, each depending only on
// already-submitted jobs (the admission layer validates that), so the
// dependency graph is acyclic by construction.
type LiveDAG struct {
	src *runtime.LiveSource
	mat Materializer

	mu sync.Mutex
	// remaining counts a held stage's unsettled dependencies.
	remaining map[scheduler.JobID]int
	// consumers maps a producer to held stages waiting on it.
	consumers map[scheduler.JobID][]scheduler.JobID
	done      map[scheduler.JobID]bool
	failed    map[scheduler.JobID]bool
	// materialized marks producers whose output file exists. A producer
	// that finishes with no waiting consumers is not materialized eagerly
	// — if a consumer arrives later, the producer lands on needMat and
	// Pop (engine goroutine, scheduler idle) materializes it before the
	// consumer's arrival reaches the scheduler.
	materialized map[scheduler.JobID]bool
	needMat      []scheduler.JobID
}

var (
	_ runtime.ArrivalSource = (*LiveDAG)(nil)
	_ runtime.JobTracker    = (*LiveDAG)(nil)
)

// NewLiveDAG wraps src. mat materializes a finished producer's output
// before its dependents are released; it runs on the engine goroutine.
func NewLiveDAG(src *runtime.LiveSource, mat Materializer) *LiveDAG {
	return &LiveDAG{
		src:          src,
		mat:          mat,
		remaining:    make(map[scheduler.JobID]int),
		consumers:    make(map[scheduler.JobID][]scheduler.JobID),
		done:         make(map[scheduler.JobID]bool),
		failed:       make(map[scheduler.JobID]bool),
		materialized: make(map[scheduler.JobID]bool),
	}
}

// SubmitStage accepts a job with dependencies. Dependencies must name
// already-accepted jobs. A stage whose dependencies are all already
// done is queued immediately; one with a failed dependency is refused
// (its input will never exist); otherwise it is held and the status
// API reports it "waiting". pre behaves as in LiveSource.SubmitWith.
func (d *LiveDAG) SubmitStage(meta scheduler.JobMeta, deps []scheduler.JobID, pre func(scheduler.JobID) error) (scheduler.JobID, error) {
	if len(deps) == 0 {
		return d.src.SubmitWith(meta, pre)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pending := 0
	for _, dep := range deps {
		if _, ok := d.src.Status(dep); !ok {
			return 0, fmt.Errorf("pipeline: dependency %d was never submitted", dep)
		}
		if d.failed[dep] {
			return 0, fmt.Errorf("pipeline: dependency %d failed; its output will never exist", dep)
		}
		if !d.done[dep] {
			pending++
		}
	}
	if pending == 0 {
		// All dependencies are done, but a producer that finished before
		// any consumer existed never materialized its output. Queue the
		// stage immediately (Release wakes a parked engine) and defer the
		// materialization to Pop, which the engine runs — with the
		// scheduler idle — before this arrival can reach Submit.
		missing := d.unmaterializedLocked(deps)
		if len(missing) == 0 {
			id, err := d.src.SubmitWith(meta, pre)
			if err == nil {
				d.src.SetDependsOn(id, deps)
			}
			return id, err
		}
		id, err := d.src.SubmitHeldWith(meta, deps, pre)
		if err != nil {
			return 0, err
		}
		d.needMat = append(d.needMat, missing...)
		if err := d.src.Release(id); err != nil {
			return 0, err
		}
		return id, nil
	}
	id, err := d.src.SubmitHeldWith(meta, deps, pre)
	if err != nil {
		return 0, err
	}
	d.remaining[id] = pending
	for _, dep := range deps {
		if !d.done[dep] {
			d.consumers[dep] = append(d.consumers[dep], id)
		}
	}
	return id, nil
}

// AdoptDone seeds a journal-recovered terminal stage so later
// dependency checks (and releases) see it settled.
func (d *LiveDAG) AdoptDone(id scheduler.JobID, failed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if failed {
		d.failed[id] = true
	} else {
		d.done[id] = true
	}
}

// AdoptMaterialized marks a recovered producer's output as already on
// disk (the recovery path replays stage-materialized journal records
// and re-registers the derived file itself), so later consumers do not
// re-materialize it.
func (d *LiveDAG) AdoptMaterialized(id scheduler.JobID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.materialized[id] = true
}

// unmaterializedLocked returns the done dependencies whose output has
// not been materialized yet. Call with d.mu held.
func (d *LiveDAG) unmaterializedLocked(deps []scheduler.JobID) []scheduler.JobID {
	var missing []scheduler.JobID
	for _, dep := range deps {
		if d.done[dep] && !d.materialized[dep] {
			missing = append(missing, dep)
		}
	}
	return missing
}

// Pop implements runtime.ArrivalSource. Before delegating it drains
// deferred materializations: it runs on the engine goroutine with the
// scheduler idle (no round in flight), and before any queued arrival is
// submitted, so a late consumer's derived input file is registered by
// the time its Submit runs. A materialization failure here leaves the
// file unregistered and the consumer's Submit fails with a wrong-file
// error — an infrastructure fault that aborts the run, like a journal
// write failure would.
func (d *LiveDAG) Pop(now vclock.Time) []runtime.Arrival {
	d.mu.Lock()
	for len(d.needMat) > 0 {
		pid := d.needMat[0]
		d.needMat = d.needMat[1:]
		if d.materialized[pid] {
			continue
		}
		if _, err := d.mat(pid, now); err == nil {
			d.materialized[pid] = true
		}
	}
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

// JobFinished implements runtime.JobTracker: record the terminal state
// on the status API, then settle dependents — materialize the output
// if anyone waits on it, release satisfied stages, cascade-fail the
// dependents of a failed producer. Runs on the engine goroutine,
// synchronously inside round settlement, so releases are visible
// before the engine looks for its next arrival.
func (d *LiveDAG) JobFinished(id scheduler.JobID, at vclock.Time, failed bool) {
	d.src.JobFinished(id, at, failed)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done[id] || d.failed[id] {
		return
	}
	if failed {
		d.failed[id] = true
		d.cascadeFailLocked(id, at)
		return
	}
	d.done[id] = true
	deps := d.consumers[id]
	if len(deps) == 0 {
		return
	}
	if _, err := d.mat(id, at); err != nil {
		// The producer succeeded but its output cannot become a file;
		// everything downstream is undeliverable.
		d.cascadeFailLocked(id, at)
		return
	}
	d.materialized[id] = true
	for _, cid := range deps {
		rem, held := d.remaining[cid]
		if !held {
			continue
		}
		rem--
		if rem > 0 {
			d.remaining[cid] = rem
			continue
		}
		delete(d.remaining, cid)
		_ = d.src.Release(cid)
	}
	delete(d.consumers, id)
}

// cascadeFailLocked fails every transitive held dependent of id.
func (d *LiveDAG) cascadeFailLocked(id scheduler.JobID, at vclock.Time) {
	for _, cid := range d.consumers[id] {
		if _, held := d.remaining[cid]; !held {
			continue
		}
		delete(d.remaining, cid)
		d.failed[cid] = true
		_ = d.src.FailHeld(cid, at)
		d.cascadeFailLocked(cid, at)
	}
	delete(d.consumers, id)
}
