// Package pipeline turns independent jobs into DAG stages: a job may
// depend on other jobs, and when a producer finishes, its reduce
// output is materialized into the store as a new file whose consumers
// are released into the live circular pass — where they share segment
// scans with whatever else is running, exactly like jobs over declared
// inputs (the ROADMAP's S^3 twist on Fotakis et al.'s multi-round
// precedence model).
//
// One Graph decides when a stage is ready and what fails with it; two
// arrival sources put it in front of the engine: Coordinator for
// trace-driven runs (s3compare cells), a runtime.TraceSource that a
// released stage is inserted into, and LiveDAG for daemon mode
// (s3cluster), a runtime.LiveSource where a held stage shows as
// "waiting" on the admission API. Through the same code both see to it
// that no stage reaches the scheduler before every producer's output is
// a file; that a stage whose producer failed, or whose producer's output
// could not be made a file, fails with it, and so does everything
// downstream; that an output is materialized at most once, and only if
// something reads it; and that every accepted stage ends released or
// failed, never both.
//
// Materialization is delegated: the source decides *when* a stage's
// output becomes a file, the installed Materializer decides *how* (sim
// cells register priced metadata, engine cells write real blocks, the
// cluster master replicates to workers) and reports how long it took,
// which delays the dependents' release.
package pipeline

import (
	"fmt"
	"slices"

	"s3sched/internal/runtime"
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
// release). It is called at most once per stage, and only for stages
// with dependents. A Materializer that knows the stage's output is
// never read (pure ordering edges) returns (0, nil) without ingesting.
type Materializer func(id scheduler.JobID, at vclock.Time) (vclock.Duration, error)

// tracker is what both sources are made of: the graph, the materializer
// and the one place a finished stage meets them.
type tracker struct {
	g   Graph
	mat Materializer
	// unread are the stages that finished well before any reader was
	// added. Their output is no file yet, so they stay unsettled in the
	// graph and a late reader is held on them like an early one.
	unread map[scheduler.JobID]bool
	err    error // the first materialization failure
}

// finished settles a stage the engine reports finished at at, once, and
// returns the stages to release, no earlier than ready, and the cone to
// fail. A finished stage is materialized if it has readers — when that
// fails, they fail as if the stage had — and left unread if it has none.
func (t *tracker) finished(id scheduler.JobID, at vclock.Time) (released []scheduler.JobID, ready vclock.Time, cone []scheduler.JobID) {
	switch {
	case t.g.Settled(id):
		return nil, at, nil
	case !t.g.Waited(id):
		t.unread[id] = true
		return nil, at, nil
	}
	delete(t.unread, id)
	delay, err := t.mat(id, at)
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("pipeline: materializing stage %d output: %w", id, err)
		}
		return nil, at, t.g.Fail(id)
	}
	return t.g.Done(id), at.Add(delay), nil
}

// Coordinator schedules a DAG of stages known up front over the
// engine's arrival machinery. Roots are delivered by At like a trace;
// dependents are held until every dependency materializes, then
// inserted into the same trace. The engine owns it (single goroutine),
// so there is no locking — daemon mode uses LiveDAG instead. A
// coordinator never blocks in Wait: releases happen inside the engine's
// own JobFinished callback, so when nothing is queued now, nothing ever
// will be.
type Coordinator struct {
	*runtime.TraceSource
	tracker
	held   map[scheduler.JobID]Stage // not released yet
	failed []scheduler.JobID
}

var (
	_ runtime.ArrivalSource = (*Coordinator)(nil)
	_ runtime.JobTracker    = (*Coordinator)(nil)
)

// NewCoordinator builds a coordinator over the DAG. Stages must have
// unique positive ids and acyclic dependencies naming other stages
// (workload.File.Validate enforces all of this for workload-derived
// DAGs; the checks here catch hand-built ones). mat may be nil only
// when no stage has dependents.
func NewCoordinator(stages []Stage, mat Materializer) (*Coordinator, error) {
	order, err := Order(stages)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		tracker: tracker{mat: mat, unread: make(map[scheduler.JobID]bool)},
		held:    make(map[scheduler.JobID]Stage),
	}
	var roots []runtime.Arrival
	for _, i := range order {
		st := stages[i]
		if st.Job.ID <= 0 {
			return nil, fmt.Errorf("pipeline: stage %q has non-positive id %d", st.Job.Name, st.Job.ID)
		}
		held, err := c.g.Add(st.Job.ID, st.DependsOn)
		if err != nil {
			return nil, err
		}
		if held {
			c.held[st.Job.ID] = st
		} else {
			roots = append(roots, runtime.Arrival{Job: st.Job, At: st.At})
		}
	}
	if len(c.held) > 0 && mat == nil {
		return nil, fmt.Errorf("pipeline: DAG has dependent stages but no materializer")
	}
	c.TraceSource, err = runtime.NewTraceSource(roots)
	return c, err
}

// JobAdmitted implements runtime.JobTracker.
func (c *Coordinator) JobAdmitted(scheduler.JobID, vclock.Time) {}

// JobFinished implements runtime.JobTracker: the stages a finished
// producer releases arrive at max(stage.At, finish + materialization
// delay); the cone of one whose output could not be materialized is
// never admitted.
func (c *Coordinator) JobFinished(id scheduler.JobID, at vclock.Time) {
	released, ready, cone := c.finished(id, at)
	for _, cid := range released {
		c.Insert(runtime.Arrival{Job: c.held[cid].Job, At: max(c.held[cid].At, ready)})
		delete(c.held, cid)
	}
	for _, cid := range cone {
		delete(c.held, cid)
	}
	c.failed = append(c.failed, cone...)
}

// Err reports why the DAG did not run to its end, after a run: the first
// materialization failure — the stages that cascade-failed with it were
// never admitted, so run metrics do not include them — else the stages
// still held, which takes a producer that never finished. nil after a
// clean run.
func (c *Coordinator) Err() error {
	switch {
	case c.err != nil:
		return c.err
	case len(c.held) > 0:
		return fmt.Errorf("pipeline: %d DAG stages never became ready", len(c.held))
	}
	return nil
}

// Failed returns the cascade-failed stages in ascending id order.
func (c *Coordinator) Failed() []scheduler.JobID {
	out := slices.Clone(c.failed)
	slices.Sort(out)
	return out
}
