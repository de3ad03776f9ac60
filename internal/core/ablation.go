package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// This file holds ablation variants of S^3 that disable one design
// choice at a time, so benchmarks can quantify what each mechanism
// contributes (DESIGN.md §5). They are not part of the paper's system;
// they are the controls its design discussion argues against.

// NoCircular is S^3 without the round-robin data scan (§IV-B): jobs
// must scan the file from its beginning, like FIFO and MRShare. A job
// arriving while a pass is underway cannot align with it — it waits
// until the current pass completes and a new pass starts from segment
// 0. Jobs that arrive while waiting do share the next pass, so this
// variant still batches; it only loses the start-anywhere property.
type NoCircular struct {
	plan *dfs.SegmentPlan
	log  *trace.Log

	seen     map[scheduler.JobID]bool
	waiting  []scheduler.JobMeta
	running  []scheduler.JobMeta
	next     int // next segment of the current pass
	inFlight bool
	pending  int
}

var _ scheduler.Scheduler = (*NoCircular)(nil)

// NewNoCircular builds the restart-at-beginning ablation over plan.
func NewNoCircular(plan *dfs.SegmentPlan, log *trace.Log) *NoCircular {
	return &NoCircular{plan: plan, log: log, seen: make(map[scheduler.JobID]bool)}
}

// Name implements Scheduler.
func (n *NoCircular) Name() string { return "s3-nocircular" }

// Submit implements Scheduler.
func (n *NoCircular) Submit(job scheduler.JobMeta, at vclock.Time) error {
	if n.seen[job.ID] {
		return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
	}
	if job.File != n.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", scheduler.ErrWrongFile, job.ID, job.File, n.plan.File().Name)
	}
	n.seen[job.ID] = true
	n.pending++
	n.waiting = append(n.waiting, job.Normalized())
	n.log.Addf(at, trace.JobSubmitted, int(job.ID), 0, "nocircular waiting for next pass (%d waiting)", len(n.waiting))
	return nil
}

// NextRound implements Scheduler.
func (n *NoCircular) NextRound(now vclock.Time) (scheduler.Round, bool) {
	if n.inFlight {
		panic("core: NoCircular.NextRound called with a round in flight")
	}
	if len(n.running) == 0 {
		if len(n.waiting) == 0 {
			return scheduler.Round{}, false
		}
		n.running = n.waiting
		n.waiting = nil
		n.next = 0
	}
	r := scheduler.Round{
		Segment:      n.next,
		Blocks:       n.plan.Blocks(n.next),
		Jobs:         n.running,
		FreshJobs:    1,
		SubJobReduce: true,
	}
	if n.next == n.plan.NumSegments()-1 {
		r.Completes = r.JobIDs()
	}
	n.inFlight = true
	n.log.Addf(now, trace.RoundLaunched, -1, n.next, "nocircular pass batch of %d", len(n.running))
	return r, true
}

// RoundDone implements Scheduler.
func (n *NoCircular) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	if !n.inFlight {
		panic("core: NoCircular.RoundDone without a round in flight")
	}
	n.inFlight = false
	n.next++
	if n.next < n.plan.NumSegments() {
		return nil
	}
	done := make([]scheduler.JobID, len(n.running))
	for i, j := range n.running {
		done[i] = j.ID
		n.log.Addf(now, trace.JobCompleted, int(j.ID), -1, "nocircular")
	}
	n.pending -= len(done)
	n.running = nil
	return done
}

// PendingJobs implements Scheduler.
func (n *NoCircular) PendingJobs() int { return n.pending }

// StaticS3 is S^3 without dynamic sub-job adjustment (§IV-D2): a job
// that arrives while the queue manager has active work is parked and
// only admitted once every current job has completed. Sub-jobs of
// parked jobs are never re-batched into waiting rounds. Jobs parked
// together still share their scan with each other once admitted.
type StaticS3 struct {
	inner  *S3
	log    *trace.Log
	parked []parkedJob
}

type parkedJob struct {
	meta scheduler.JobMeta
	at   vclock.Time
}

var _ scheduler.Scheduler = (*StaticS3)(nil)

// NewStatic builds the no-dynamic-adjustment ablation over plan.
func NewStatic(plan *dfs.SegmentPlan, log *trace.Log) *StaticS3 {
	return &StaticS3{inner: New(plan, log), log: log}
}

// Name implements Scheduler.
func (s *StaticS3) Name() string { return "s3-static" }

// Submit implements Scheduler.
func (s *StaticS3) Submit(job scheduler.JobMeta, at vclock.Time) error {
	if s.inner.PendingJobs() > 0 || s.inner.inFlight {
		for _, p := range s.parked {
			if p.meta.ID == job.ID {
				return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
			}
		}
		if s.inner.seen[job.ID] {
			return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
		}
		if job.File != s.inner.plan.File().Name {
			return fmt.Errorf("%w: job %d reads %q, plan is for %q", scheduler.ErrWrongFile, job.ID, job.File, s.inner.plan.File().Name)
		}
		s.parked = append(s.parked, parkedJob{meta: job, at: at})
		s.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "s3-static parked (%d parked)", len(s.parked))
		return nil
	}
	return s.inner.Submit(job, at)
}

// NextRound implements Scheduler.
func (s *StaticS3) NextRound(now vclock.Time) (scheduler.Round, bool) {
	if s.inner.PendingJobs() == 0 && len(s.parked) > 0 {
		for _, p := range s.parked {
			if err := s.inner.Submit(p.meta, p.at); err != nil {
				panic(fmt.Sprintf("core: StaticS3 readmitting parked job %d: %v", p.meta.ID, err))
			}
		}
		s.log.Addf(now, trace.BatchAdjusted, -1, -1, "s3-static admitted %d parked job(s)", len(s.parked))
		s.parked = nil
	}
	return s.inner.NextRound(now)
}

// RoundDone implements Scheduler.
func (s *StaticS3) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	return s.inner.RoundDone(r, now)
}

// PendingJobs implements Scheduler.
func (s *StaticS3) PendingJobs() int { return s.inner.PendingJobs() + len(s.parked) }
