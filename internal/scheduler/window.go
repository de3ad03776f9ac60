package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// WindowMRShare is an MRShare variant for the realistic setting the
// paper criticizes MRShare for not handling: job patterns unknown in
// advance (§II-C). Instead of predetermined batch sizes, a batch seals
// when either a time window has elapsed since its first member arrived
// or the batch reaches a size cap — whichever comes first. Sealed
// batches execute exactly like MRShare batches: one merged scan of the
// whole file from the beginning.
type WindowMRShare struct {
	plan     *dfs.SegmentPlan
	log      *trace.Log
	window   vclock.Duration
	maxBatch int

	seen    map[JobID]bool
	filling []JobMeta
	firstAt vclock.Time
	ready   [][]JobMeta
	cur     *mrshareRun
	// inFlight guards the serial-round protocol.
	inFlight bool
	pending  int
}

// NewWindowMRShare builds a window batcher: batches seal after window
// seconds or maxBatch jobs. log may be nil.
func NewWindowMRShare(plan *dfs.SegmentPlan, window vclock.Duration, maxBatch int, log *trace.Log) (*WindowMRShare, error) {
	if window <= 0 {
		return nil, fmt.Errorf("scheduler: WindowMRShare window must be positive, got %v", window)
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("scheduler: WindowMRShare maxBatch must be positive, got %d", maxBatch)
	}
	return &WindowMRShare{
		plan:     plan,
		log:      log,
		window:   window,
		maxBatch: maxBatch,
		seen:     make(map[JobID]bool),
	}, nil
}

// Name implements Scheduler.
func (w *WindowMRShare) Name() string { return "mrshare-window" }

// sealIfDue moves the filling batch to the ready queue when its window
// has expired (as of time now) or it is full.
func (w *WindowMRShare) sealIfDue(now vclock.Time) {
	if len(w.filling) == 0 {
		return
	}
	if len(w.filling) >= w.maxBatch || now >= w.firstAt.Add(w.window) {
		w.log.Addf(now, trace.BatchAdjusted, -1, -1, "window batch of %d sealed", len(w.filling))
		w.ready = append(w.ready, w.filling)
		w.filling = nil
	}
}

// Submit implements Scheduler.
func (w *WindowMRShare) Submit(job JobMeta, at vclock.Time) error {
	if w.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if job.File != w.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", ErrWrongFile, job.ID, job.File, w.plan.File().Name)
	}
	// The clock has reached `at`; a batch whose window expired before
	// this arrival must not absorb it.
	w.sealIfDue(at)
	w.seen[job.ID] = true
	w.pending++
	if len(w.filling) == 0 {
		w.firstAt = at
	}
	w.filling = append(w.filling, job.Normalized())
	w.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "window batch (%d/%d, seals by %v)",
		len(w.filling), w.maxBatch, w.firstAt.Add(w.window))
	w.sealIfDue(at) // size cap may have been hit
	return nil
}

// NextRound implements Scheduler.
func (w *WindowMRShare) NextRound(now vclock.Time) (Round, bool) {
	if w.inFlight {
		panic("scheduler: WindowMRShare.NextRound called with a round in flight")
	}
	w.sealIfDue(now)
	if w.cur == nil {
		if len(w.ready) == 0 {
			return Round{}, false
		}
		w.cur = &mrshareRun{jobs: w.ready[0]}
		w.ready = w.ready[1:]
	}
	seg := w.cur.next
	r := Round{
		Segment: seg,
		Blocks:  w.plan.Blocks(seg),
		Jobs:    w.cur.jobs,
		Tagged:  true,
	}
	if seg == 0 {
		r.FreshJobs = 1
	}
	if seg == w.plan.NumSegments()-1 {
		r.Completes = r.JobIDs()
	}
	w.inFlight = true
	w.log.Addf(now, trace.RoundLaunched, -1, seg, "window batch of %d", len(w.cur.jobs))
	return r, true
}

// RoundDone implements Scheduler.
func (w *WindowMRShare) RoundDone(r Round, now vclock.Time) []JobID {
	if !w.inFlight {
		panic("scheduler: WindowMRShare.RoundDone without a round in flight")
	}
	w.inFlight = false
	w.cur.next++
	if w.cur.next == w.plan.NumSegments() {
		done := make([]JobID, len(w.cur.jobs))
		for i, j := range w.cur.jobs {
			done[i] = j.ID
			w.log.Addf(now, trace.JobCompleted, int(j.ID), -1, "window batch")
		}
		w.pending -= len(done)
		w.cur = nil
		return done
	}
	return nil
}

// PendingJobs implements Scheduler.
func (w *WindowMRShare) PendingJobs() int { return w.pending }

// NextWake reports when the filling batch's window expires, so the
// driver can wake the scheduler even with no arrivals left.
func (w *WindowMRShare) NextWake(now vclock.Time) (vclock.Time, bool) {
	if len(w.filling) == 0 {
		return 0, false
	}
	return w.firstAt.Add(w.window), true
}
