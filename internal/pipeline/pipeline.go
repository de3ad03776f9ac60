// Package pipeline turns independent jobs into DAG stages: a job may
// depend on other jobs, and when a producer finishes, its reduce
// output is materialized into the store as a new file whose consumers
// are released into the live circular pass — where they share segment
// scans with whatever else is running, exactly like jobs over declared
// inputs (the ROADMAP's S^3 twist on Fotakis et al.'s multi-round
// precedence model).
//
// One Graph decides when a stage is ready and what fails with it, and
// one arrival source, LiveDAG, puts it in front of the engine: a
// runtime.LiveSource where a held stage shows as "waiting" on the
// admission API. An s3cluster daemon submits its stages one POST at a
// time; an s3compare cell submits its workload's before the run. Either
// way no stage reaches the scheduler before every producer's output is a
// file; a stage whose producer failed, or whose producer's output could
// not be made a file, fails with it, and so does everything downstream;
// an output is materialized at most once, and only if something reads
// it; and every accepted stage ends released or failed, never both.
//
// Materialization is delegated: LiveDAG decides *when* a stage's output
// becomes a file, the installed Materializer decides *how* (sim cells
// register priced metadata, engine cells write real blocks, the cluster
// master replicates to workers) and reports how long it took, which
// delays the dependents' release.
package pipeline

import (
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
// release). It is called at most once per stage, and only for stages
// with dependents. A Materializer that knows the stage's output is
// never read (pure ordering edges) returns (0, nil) without ingesting.
type Materializer func(id scheduler.JobID, at vclock.Time) (vclock.Duration, error)

// tracker is the graph, the materializer and the one place a finished
// stage meets them.
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
