package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// This file holds an ablation variant of S^3 that disables one design
// choice, so benchmarks can quantify what the mechanism contributes
// (DESIGN.md §5). It is not part of the paper's system; it is a control
// its design discussion argues against. The circular-scan ablation is
// scheduler.NewNoCircular.

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

var _ scheduler.Recoverable = (*StaticS3)(nil)

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

// RequeueRound implements scheduler.Recoverable: parked jobs stay
// parked, and the S^3 queue requeues the lost round's sub-jobs.
func (s *StaticS3) RequeueRound(r scheduler.Round, now vclock.Time) {
	s.inner.RequeueRound(r, now)
}

// PendingJobs implements Scheduler.
func (s *StaticS3) PendingJobs() int { return s.inner.PendingJobs() + len(s.parked) }
