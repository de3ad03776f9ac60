package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Fair models the partial-utilization scheduler family of §II-B
// (Yahoo!'s capacity scheduler, Facebook's fair scheduler): every
// active job makes progress concurrently instead of queueing behind
// the job ahead. At this framework's round granularity that is
// processor sharing sliced by segment: rounds rotate round-robin over
// the active jobs, each round scanning the *next segment of that job
// alone* from the beginning of its file.
//
// The §II-B critique this baseline exists to demonstrate: jobs stop
// blocking each other (ART improves over FIFO when jobs overlap), but
// every job still runs its own scan — common operations are never
// shared, so total execution time stays at FIFO's level and both
// metrics lose to S^3 under shared-input workloads.
type Fair struct {
	plan *dfs.SegmentPlan
	log  *trace.Log

	seen map[JobID]bool // live jobs
	// active jobs in round-robin order; next segment index per job.
	active []*fairJob
	rr     int // round-robin pointer into active

	inFlight    bool
	inFlightJob *fairJob
}

type fairJob struct {
	meta JobMeta
	next int // next segment (linear 0..k-1)
}

var _ Recoverable = (*Fair)(nil)

// NewFair returns a fair scheduler over the plan. log may be nil.
func NewFair(plan *dfs.SegmentPlan, log *trace.Log) *Fair {
	return &Fair{plan: plan, log: log, seen: make(map[JobID]bool)}
}

// Name implements Scheduler.
func (f *Fair) Name() string { return "fair" }

// Submit implements Scheduler.
func (f *Fair) Submit(job JobMeta, at vclock.Time) error {
	if f.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if job.File != f.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", ErrWrongFile, job.ID, job.File, f.plan.File().Name)
	}
	f.seen[job.ID] = true
	f.active = append(f.active, &fairJob{meta: job.Normalized()})
	f.log.Addf(at, trace.JobSubmitted, int(job.ID), 0, "fair pool of %d", len(f.active))
	return nil
}

// NextRound implements Scheduler: the next job in round-robin order
// gets the cluster for one segment of its own scan.
func (f *Fair) NextRound(now vclock.Time) (Round, bool) {
	if f.inFlight {
		panic("scheduler: Fair.NextRound called with a round in flight")
	}
	if len(f.active) == 0 {
		return Round{}, false
	}
	if f.rr >= len(f.active) {
		f.rr = 0
	}
	j := f.active[f.rr]
	r := Round{
		Segment: j.next,
		Blocks:  f.plan.Blocks(j.next),
		Jobs:    []JobMeta{j.meta},
	}
	if j.next == 0 {
		r.FreshJobs = 1
	}
	if j.next == f.plan.NumSegments()-1 {
		r.Completes = []JobID{j.meta.ID}
	}
	f.inFlight = true
	f.inFlightJob = j
	f.log.Addf(now, trace.RoundLaunched, int(j.meta.ID), j.next, "fair slice")
	return r, true
}

// RoundDone implements Scheduler.
func (f *Fair) RoundDone(r Round, now vclock.Time) []JobID {
	if !f.inFlight {
		panic("scheduler: Fair.RoundDone without a round in flight")
	}
	f.inFlight = false
	j := f.inFlightJob
	f.inFlightJob = nil
	j.next++
	if j.next == f.plan.NumSegments() {
		// Retire the job; the round-robin pointer stays on the slot
		// that now holds the next job.
		for i, cand := range f.active {
			if cand == j {
				f.active = append(f.active[:i], f.active[i+1:]...)
				if f.rr > i {
					f.rr--
				}
				break
			}
		}
		delete(f.seen, j.meta.ID)
		f.log.Addf(now, trace.JobCompleted, int(j.meta.ID), -1, "fair")
		return []JobID{j.meta.ID}
	}
	f.rr++
	return nil
}

// RequeueRound implements Recoverable: the lost slice is resubmitted
// whole. Its job keeps its segment progress and the round-robin pointer
// stays on it, so the next NextRound re-forms the same slice.
func (f *Fair) RequeueRound(r Round, now vclock.Time) {
	if !f.inFlight {
		panic("scheduler: Fair.RequeueRound without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.SubJobRequeued, int(f.inFlightJob.meta.ID), r.Segment, "fair slice lost; resubmitting")
	f.inFlightJob = nil
}

// PendingJobs implements Scheduler.
func (f *Fair) PendingJobs() int { return len(f.active) }
