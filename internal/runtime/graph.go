package runtime

import (
	"errors"
	"fmt"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Stage is one DAG node: a job, its arrival lower bound, and its
// dependencies. A stage with no dependencies is a root and arrives
// like a plain trace entry.
type Stage struct {
	Job scheduler.JobMeta
	// At is the stage's submission time — a lower bound: a dependent
	// stage is released at max(At, last dependency's materialization).
	At        vclock.Time
	DependsOn []scheduler.JobID
}

// Materializer ingests a finished stage's output into the run's store
// and registers its segment plan with the scheduler, returning the
// virtual duration the write took (which defers the dependents'
// release). It decides *how* an output becomes a file — sim cells
// register priced metadata, engine cells write real blocks, the cluster
// master replicates to workers — and the LiveSource decides *when*: at
// most once per stage, only for stages with readers, on the engine
// goroutine. A Materializer that knows the stage's output is never read
// (pure ordering edges) returns (0, nil) without ingesting.
type Materializer func(id scheduler.JobID, at vclock.Time) (vclock.Duration, error)

// ErrDoomed is the refusal of a stage with a failed producer: its input
// will never exist.
var ErrDoomed = errors.New("runtime: a dependency failed, so the stage's input will never exist")

// CheckEdges is the edge rule, the same for a workload file and a POST
// /jobs: a stage may not depend on itself, on a stage known does not
// know, or on one stage twice. The error has no subject — it reads
// "depends on itself" — so the caller names the stage its own way.
func CheckEdges(id scheduler.JobID, deps []scheduler.JobID, known func(scheduler.JobID) bool) error {
	for i, dep := range deps {
		switch {
		case dep == id:
			return errors.New("depends on itself")
		case !known(dep):
			return fmt.Errorf("depends on unknown job %d", dep)
		}
		for _, earlier := range deps[:i] {
			if earlier == dep {
				return fmt.Errorf("lists dependency %d twice", dep)
			}
		}
	}
	return nil
}

// CycleError names a stage on a dependency cycle and the producer
// through which the walk came back to a stage it was still inside.
type CycleError struct{ Job, Via scheduler.JobID }

func (e *CycleError) Error() string {
	return fmt.Sprintf("job %d is on a dependency cycle (via job %d)", e.Job, e.Via)
}

// Order returns the indices of stages — which have distinct ids and may
// name each other in any order — so that every stage comes after its
// producers: a depth-first walk from each stage in the order given,
// through its producers in the order listed. A bad edge is an error, and
// so is a cycle: a *CycleError for the stage whose edge closes it.
func Order(stages []Stage) ([]int, error) {
	index := make(map[scheduler.JobID]int, len(stages))
	for i, st := range stages {
		index[st.Job.ID] = i
	}
	known := func(id scheduler.JobID) bool { _, ok := index[id]; return ok }
	const (
		unvisited = iota
		inside    // on the walk's current path
		placed
	)
	state := make([]int, len(stages))
	order := make([]int, 0, len(stages))
	var visit func(i int) error
	visit = func(i int) error {
		if err := CheckEdges(stages[i].Job.ID, stages[i].DependsOn, known); err != nil {
			return fmt.Errorf("runtime: stage %d %w", stages[i].Job.ID, err)
		}
		state[i] = inside
		for _, dep := range stages[i].DependsOn {
			switch p := index[dep]; state[p] {
			case inside:
				return &CycleError{Job: stages[i].Job.ID, Via: dep}
			case unvisited:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		state[i] = placed
		order = append(order, i)
		return nil
	}
	for i := range stages {
		if state[i] == unvisited {
			if err := visit(i); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}
