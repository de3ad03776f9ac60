package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/vclock"
)

// PlanRegistrar is implemented by every plan-set scheduler: a derived
// file's segment plan can join a run in progress — the hook DAG-stage
// materialization uses. expectJobs is how many jobs will read the file;
// batch schedulers size the file's batch with it, continuous ones treat
// it as advisory. It is refused while a round's map is in flight:
// drivers call it from job-done hooks, which run after RoundDone.
type PlanRegistrar interface {
	AddPlan(plan *dfs.SegmentPlan, expectJobs int) error
}

// Stalled is implemented by schedulers that can report a permanent
// stall (MRShare with an unfillable batch). The run loop surfaces it as
// an error instead of spinning forever.
type Stalled interface {
	Stalled() bool
}

// Queue is one file's scheduler inside an Arbiter.
type Queue interface {
	Scheduler
	Recoverable
}

// Arbiter takes a single-file scheme beyond the paper's one-input-file
// context (§III-A; §VI leaves several files open). It keeps one
// independent queue per registered file, routes each job to its file's
// queue and arbitrates the cluster among files a round at a time: of
// the files with runnable work the highest-ranked goes next, ties
// rotating round-robin so no file starves. Within a queue the scheme's
// own semantics apply unchanged, and what a queue can do beyond
// Scheduler — Recoverable, Stalled — is forwarded to the queue that
// launched the round.
type Arbiter[Q Queue] struct {
	name  string
	build func(plan *dfs.SegmentPlan, expectJobs int) (Q, error)
	rank  func(q Q) (priority int, runnable bool)

	queues map[string]Q
	order  []string // file names as registered; next walks it round-robin
	next   int
	seen   map[JobID]int // each live job's submission order: routed, not yet done
	routed int           // jobs ever routed

	inFlight     bool
	inFlightFile string
}

// NewArbiter builds an arbiter called name over the given segment plans
// (one per file). build makes a file's queue: expectJobs is 0 for these
// plans, AddPlan's count for files registered mid-run. rank reports
// whether a queue can form a round now and how urgent its work is.
func NewArbiter[Q Queue](name string, plans []*dfs.SegmentPlan,
	build func(plan *dfs.SegmentPlan, expectJobs int) (Q, error),
	rank func(q Q) (priority int, runnable bool)) (*Arbiter[Q], error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("scheduler: %s needs at least one segment plan", name)
	}
	a := &Arbiter[Q]{name: name, build: build, rank: rank, queues: make(map[string]Q), seen: make(map[JobID]int)}
	for _, p := range plans {
		if err := a.AddPlan(p, 0); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Name implements Scheduler.
func (a *Arbiter[Q]) Name() string { return a.name }

// AddPlan implements PlanRegistrar.
func (a *Arbiter[Q]) AddPlan(p *dfs.SegmentPlan, expectJobs int) error {
	file := p.File().Name
	if a.inFlight {
		return fmt.Errorf("scheduler: %s.AddPlan(%q) with a round in flight", a.name, file)
	}
	if _, dup := a.queues[file]; dup {
		return fmt.Errorf("scheduler: %s already has a plan for file %q", a.name, file)
	}
	q, err := a.build(p, expectJobs)
	if err != nil {
		return err
	}
	a.queues[file] = q
	a.order = append(a.order, file)
	return nil
}

// Files returns the registered file names in registration order.
func (a *Arbiter[Q]) Files() []string { return append([]string(nil), a.order...) }

// Queue returns file's queue.
func (a *Arbiter[Q]) Queue(file string) (Q, bool) {
	q, ok := a.queues[file]
	return q, ok
}

// SubmissionOrder returns how many jobs the arbiter had routed before
// job id, which must be live.
func (a *Arbiter[Q]) SubmissionOrder(id JobID) int { return a.seen[id] }

// SnapshotQueues assembles a Snapshot: the rotation pointer plus each
// file's queue as save renders it, in registration order.
func (a *Arbiter[Q]) SnapshotQueues(save func(Q) (QueueSnapshot, error)) (Snapshot, error) {
	snap := Snapshot{Scheme: a.name, Rotation: a.next}
	for _, file := range a.order {
		qs, err := save(a.queues[file])
		if err != nil {
			return Snapshot{}, fmt.Errorf("scheduler: snapshotting queue %q: %w", file, err)
		}
		snap.Queues = append(snap.Queues, qs)
	}
	return snap, nil
}

// RestoreQueues loads snap into a freshly built arbiter, load filling
// each queue. Every snapshot queue must match a registered file; files
// absent from the snapshot stay empty (they had no active jobs).
func (a *Arbiter[Q]) RestoreQueues(snap Snapshot, load func(Q, QueueSnapshot) error) error {
	switch {
	case snap.Scheme != a.name:
		return fmt.Errorf("scheduler: snapshot from scheme %q, scheduler is %q", snap.Scheme, a.name)
	case a.inFlight || a.routed > 0:
		return fmt.Errorf("scheduler: %s restored into a used scheduler", a.name)
	case snap.Rotation < 0 || snap.Rotation >= len(a.order):
		return fmt.Errorf("scheduler: snapshot rotation %d out of range [0,%d)", snap.Rotation, len(a.order))
	}
	restored := make(map[string]bool, len(snap.Queues))
	for _, qs := range snap.Queues {
		q, ok := a.queues[qs.File]
		if !ok || restored[qs.File] {
			return fmt.Errorf("scheduler: snapshot queue for file %q, unregistered or repeated", qs.File)
		}
		restored[qs.File] = true
		if err := load(q, qs); err != nil {
			return err
		}
		for _, js := range qs.Jobs {
			if _, dup := a.seen[js.Meta.ID]; dup {
				return fmt.Errorf("scheduler: snapshot repeats job %d across files", js.Meta.ID)
			}
			a.seen[js.Meta.ID] = a.routed
			a.routed++
		}
	}
	a.next = snap.Rotation
	return nil
}

// Submit implements Scheduler: the job is routed to its file's queue.
func (a *Arbiter[Q]) Submit(job JobMeta, at vclock.Time) error {
	if _, dup := a.seen[job.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	q, ok := a.queues[job.File]
	if !ok {
		return fmt.Errorf("%w: job %d reads %q, no such file registered", ErrWrongFile, job.ID, job.File)
	}
	if err := q.Submit(job, at); err != nil {
		return err
	}
	a.seen[job.ID] = a.routed
	a.routed++
	return nil
}

// NextRound implements Scheduler: files are ranked from the rotation
// pointer on, and the first of the highest priority among the runnable
// ones forms the round.
func (a *Arbiter[Q]) NextRound(now vclock.Time) (Round, bool) {
	if a.inFlight {
		panic(fmt.Sprintf("scheduler: %s.NextRound called with a round in flight", a.name))
	}
	best, bestPrio := -1, 0
	for off := range a.order {
		i := (a.next + off) % len(a.order)
		prio, runnable := a.rank(a.queues[a.order[i]])
		if runnable && (best == -1 || prio > bestPrio) {
			best, bestPrio = i, prio
		}
	}
	if best == -1 {
		return Round{}, false
	}
	file := a.order[best]
	r, ok := a.queues[file].NextRound(now)
	if !ok {
		panic(fmt.Sprintf("scheduler: %s queue %q ranked runnable but formed no round", a.name, file))
	}
	a.next = (best + 1) % len(a.order)
	a.inFlight, a.inFlightFile = true, file
	return r, true
}

// launched ends the in-flight state for the protocol call what and
// returns the queue whose round it was.
func (a *Arbiter[Q]) launched(what string) Q {
	if !a.inFlight {
		panic(fmt.Sprintf("scheduler: %s.%s without a round in flight", a.name, what))
	}
	a.inFlight = false
	return a.queues[a.inFlightFile]
}

// RoundDone implements Scheduler. The arbiter forgets the jobs done.
func (a *Arbiter[Q]) RoundDone(r Round, now vclock.Time) []JobID {
	done := a.launched("RoundDone").RoundDone(r, now)
	for _, id := range done {
		delete(a.seen, id)
	}
	return done
}

// RequeueRound implements Recoverable. A lost round did not use up its
// file's turn: the rotation pointer steps back onto the file NextRound
// stepped it past, so the round re-forms before any other file's.
func (a *Arbiter[Q]) RequeueRound(r Round, now vclock.Time) {
	a.launched("RequeueRound").RequeueRound(r, now)
	a.next = (a.next + len(a.order) - 1) % len(a.order)
}

// PendingJobs implements Scheduler.
func (a *Arbiter[Q]) PendingJobs() int {
	total := 0
	for _, q := range a.queues {
		total += q.PendingJobs()
	}
	return total
}

// Stalled implements Stalled: no file has runnable work, yet some
// file's queue holds jobs that only future submissions can release.
func (a *Arbiter[Q]) Stalled() bool {
	stuck := false
	for _, q := range a.queues {
		if _, runnable := a.rank(q); runnable {
			return false
		}
		if st, ok := any(q).(Stalled); ok && st.Stalled() {
			stuck = true
		}
	}
	return stuck
}
