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

// ErrDoomed is the graph's refusal of a stage with a failed producer:
// its input will never exist.
var ErrDoomed = errors.New("runtime: a dependency failed, so the stage's input will never exist")

// node is one stage as the graph sees it. It is unsettled until Done or
// Fail is called for it; waits counts its unsettled producers and users
// lists the stages that were held on it when they were added.
type node struct {
	settled, failed bool
	waits           int
	users           []scheduler.JobID
}

// Graph is the one dependency state machine: which stages are ready,
// which are held, and which fail with a producer. Every caller that has
// to decide any of that — workload validation, the solo reference's run
// order, the admission queue (LiveSource), journal recovery — asks here.
// It holds no lock; LiveSource guards its own with the queue's. The zero
// value is an empty graph.
type Graph struct {
	nodes map[scheduler.JobID]*node
}

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

// Check reports what Add would say of a stage with these producers, and
// changes nothing. id may be zero for a stage that has no id yet.
func (g *Graph) Check(id scheduler.JobID, deps []scheduler.JobID) (held bool, err error) {
	if g.nodes[id] != nil {
		return false, fmt.Errorf("runtime: duplicate stage id %d: %w", id, scheduler.ErrDuplicateJob)
	}
	if err := CheckEdges(id, deps, func(dep scheduler.JobID) bool { return g.nodes[dep] != nil }); err != nil {
		return false, fmt.Errorf("runtime: new stage %w", err)
	}
	for _, dep := range deps {
		switch p := g.nodes[dep]; {
		case p.failed:
			return false, fmt.Errorf("%w (job %d)", ErrDoomed, dep)
		case !p.settled:
			held = true
		}
	}
	return held, nil
}

// Add records a stage whose producers are all in the graph already and
// reports whether it is held: one of them has not settled yet, and the
// stage is released by the Done of the last that does or failed by the
// Fail of any. A bad edge is an error and so is a failed producer
// (ErrDoomed); neither leaves a trace.
func (g *Graph) Add(id scheduler.JobID, deps []scheduler.JobID) (held bool, err error) {
	if held, err = g.Check(id, deps); err == nil {
		g.insert(id, deps)
	}
	return held, err
}

// insert is Add without the Check: the caller has checked the edges
// already, under an id the graph does not have.
func (g *Graph) insert(id scheduler.JobID, deps []scheduler.JobID) {
	if g.nodes == nil {
		g.nodes = make(map[scheduler.JobID]*node)
	}
	n := &node{}
	g.nodes[id] = n
	for _, dep := range deps {
		if p := g.nodes[dep]; !p.settled {
			n.waits++
			p.users = append(p.users, id)
		}
	}
}

// Done settles a stage whose output exists and returns the stages this
// releases: those held on it whose other producers are all done. Calling
// it again, or for a stage that failed, releases nothing.
func (g *Graph) Done(id scheduler.JobID) (released []scheduler.JobID) {
	n := g.nodes[id]
	if n == nil || n.settled {
		return nil
	}
	n.settled = true
	for _, uid := range n.users {
		if u := g.nodes[uid]; !u.settled {
			if u.waits--; u.waits == 0 {
				released = append(released, uid)
			}
		}
	}
	n.users = nil
	return released
}

// Fail settles a stage whose output will never exist and returns the
// cone that fails with it: every unsettled stage held on it, and on
// those, depth first. The stages of the cone are settled as failed too.
func (g *Graph) Fail(id scheduler.JobID) (cone []scheduler.JobID) {
	n := g.nodes[id]
	if n == nil || n.settled {
		return nil
	}
	n.settled, n.failed = true, true
	for _, uid := range n.users {
		if !g.nodes[uid].settled {
			cone = append(append(cone, uid), g.Fail(uid)...)
		}
	}
	n.users = nil
	return cone
}

// Settled reports whether Done or Fail has been called for the stage.
func (g *Graph) Settled(id scheduler.JobID) bool { return g.nodes[id] != nil && g.nodes[id].settled }

// Waited reports whether a stage was held on id: whether its output has
// a reader that cannot start without it.
func (g *Graph) Waited(id scheduler.JobID) bool {
	return g.nodes[id] != nil && len(g.nodes[id].users) > 0
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
