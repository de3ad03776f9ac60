// Package core implements S^3, the shared scan scheduler that is the
// paper's contribution (§IV). A job over a k-segment file is split
// into k sub-jobs, one per segment, processed in circular order
// starting from whichever segment the scheduler reaches next after the
// job arrives. Sub-jobs of different jobs that target the same segment
// are aligned and launched as one batch sharing a single scan of that
// segment.
//
// The package provides:
//
//   - S3: the Job Queue Manager (Algorithm 1) as a scheduler.Scheduler,
//     one file's queue; its Snapshot is what master recovery persists.
//   - The evaluation's other schemes as the same queue behind an
//     admission gate (gate.go): Hadoop FIFO, MRShare, time-window
//     MRShare, and the two ablations s3-static and s3-nocircular.
//   - SlotChecker + DynamicS3: §IV-D1 periodic slot checking and the
//     dynamically sized segments of §IV-B/§IV-D2.
//   - Estimator: §IV-D1's completion-time estimation as an online
//     least-squares fit over observed rounds.
//   - MultiFile: what a cluster deploys — scheduler.Arbiter over S3
//     queues with priority arbitration (§VI), snapshots, scan hints.
package core

import (
	"fmt"
	"sort"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// JobState tracks one active job inside the Job Queue Manager.
type JobState struct {
	Meta scheduler.JobMeta
	// StartSegment is the segment the job was admitted at — ss_i in
	// Algorithm 1's JobQueue notation J_i(ss_i).
	StartSegment int
	// Remaining is how many of the job's k sub-jobs have not yet run.
	Remaining int
	// SubmittedAt is when the job arrived.
	SubmittedAt vclock.Time
}

// S3 is the Shared Scan Scheduler's Job Queue Manager. It implements
// scheduler.Scheduler.
//
// Invariant (tested property): every active job still needs the cursor
// segment. This is what makes Algorithm 1 sound: jobs are admitted at
// the cursor, consume segments in the same circular order the cursor
// moves, and complete exactly when the cursor returns to the segment
// before their start — so batching "all active jobs" for the cursor
// segment never scans a segment for a job that does not want it.
type S3 struct {
	name   string
	plan   *dfs.SegmentPlan
	log    *trace.Log
	cursor int // next segment to be scheduled
	active []*JobState
	seen   map[scheduler.JobID]bool // live jobs: held by the gate or active
	// gate, when set, holds arrivals back until it admits them; nil
	// admits every job on arrival, as S^3 does. shape is how a round
	// reaches the cluster.
	gate  *gate
	shape roundShape

	inFlight bool
	// launchedFor records which jobs are in the in-flight round, so a
	// job submitted mid-round is not credited for a scan it missed.
	launchedFor map[scheduler.JobID]bool
	// jobSpans holds each active job's lifetime span (submission to
	// completion/abort) in the trace log. Telemetry only — not part of
	// Snapshot/Restore state; jobs restored into a fresh scheduler
	// simply have no open span.
	jobSpans map[scheduler.JobID]trace.SpanID
	// hinter, when set, receives the cache guidance derived from each
	// cursor advance (SetScanHinter).
	hinter ScanHinter
}

// ScanHinter consumes the JQM's cache guidance. dfs.Store.HandleScanHint
// and the sim executor's HandleScanHint both satisfy it.
type ScanHinter func(dfs.ScanHint)

var (
	_ scheduler.Scheduler   = (*S3)(nil)
	_ scheduler.Recoverable = (*S3)(nil)
)

// New returns an S^3 scheduler over the segment plan. log may be nil.
func New(plan *dfs.SegmentPlan, log *trace.Log) *S3 {
	return &S3{
		name: "s3",
		plan: plan,
		log:  log,
		seen: make(map[scheduler.JobID]bool),
	}
}

// Name implements Scheduler.
func (s *S3) Name() string { return s.name }

// Plan returns the segment plan the scheduler runs over.
func (s *S3) Plan() *dfs.SegmentPlan { return s.plan }

// Cursor returns the next segment to be scheduled.
func (s *S3) Cursor() int { return s.cursor }

// SetScanHinter installs the consumer of the JQM's cache guidance. On
// every cursor advance the scheduler emits one dfs.ScanHint: the new
// cursor segment (and, when the file has more than two segments, the
// one after it) pinned, the just-scanned segment demoted, and — when
// some active job is guaranteed to scan it — the segment after the new
// cursor as the prefetch target, so its readahead overlaps the current
// round's work. Not part of Snapshot state; re-wire after Restore.
func (s *S3) SetScanHinter(h ScanHinter) { s.hinter = h }

// Active returns a snapshot of the active job states, ordered by
// submission.
func (s *S3) Active() []JobState {
	out := make([]JobState, len(s.active))
	for i, js := range s.active {
		out[i] = *js
	}
	return out
}

// Submit implements Scheduler. The job is split into k sub-jobs and
// aligned with the waiting queue: its first sub-job targets the
// cursor segment (the next to be scheduled), so the job starts
// processing in the very next round (paper §IV-C). A gate holds the
// job back instead, unless it is s3-static's and the queue is idle and
// empty.
func (s *S3) Submit(job scheduler.JobMeta, at vclock.Time) error {
	if s.seen[job.ID] {
		return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
	}
	if job.File != s.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", scheduler.ErrWrongFile, job.ID, job.File, s.plan.File().Name)
	}
	if s.gate != nil && (!s.gate.onIdle || len(s.active) > 0 || s.inFlight) {
		if err := s.gate.hold(JobState{Meta: job.Normalized(), SubmittedAt: at}); err != nil {
			return err
		}
		s.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "%s holds it (%d waiting)", s.name, len(s.gate.waiting))
	} else {
		s.admit(job.Normalized(), at)
	}
	s.seen[job.ID] = true
	return nil
}

// admit makes job active, its first sub-job at the segment the queue
// reaches next.
func (s *S3) admit(job scheduler.JobMeta, at vclock.Time) {
	start := s.cursor
	if s.inFlight {
		// The cursor segment is being scanned right now without this
		// job, so its first sub-job targets the following segment.
		start = s.plan.Next(s.cursor)
	}
	js := &JobState{
		Meta:         job,
		StartSegment: start,
		Remaining:    s.plan.NumSegments(),
		SubmittedAt:  at,
	}
	s.active = append(s.active, js)
	s.log.Addf(at, trace.JobSubmitted, int(job.ID), start, "s3 split into %d sub-jobs from segment %d", js.Remaining, start)
	s.log.Addf(at, trace.SubJobAligned, int(job.ID), start, "aligned with %d waiting job(s)", len(s.active)-1)
	if span := s.log.StartSpan(at, "job", trace.SpanOpts{
		Cat: "jqm", Job: int(job.ID), Segment: start,
		Args: []trace.Arg{{Key: "subjobs", Value: fmt.Sprint(js.Remaining)}},
	}); span != 0 {
		if s.jobSpans == nil {
			s.jobSpans = make(map[scheduler.JobID]trace.SpanID)
		}
		s.jobSpans[job.ID] = span
	}
}

// NextRound implements Scheduler: it is Algorithm 1's
// batchSubJobs(JobQueue, Segment) followed by processNextSubJob — all
// active jobs' sub-jobs for the cursor segment are merged into one
// batch.
func (s *S3) NextRound(now vclock.Time) (scheduler.Round, bool) {
	if s.inFlight {
		panic("core: S3.NextRound called with a round in flight")
	}
	if s.gate != nil {
		s.admitWaiting(now)
	}
	if len(s.active) == 0 {
		return scheduler.Round{}, false
	}
	jobs := make([]scheduler.JobMeta, len(s.active))
	var completes []scheduler.JobID
	launched := make(map[scheduler.JobID]bool, len(s.active))
	for i, js := range s.active {
		jobs[i] = js.Meta
		launched[js.Meta.ID] = true
		if js.Remaining == 1 {
			completes = append(completes, js.Meta.ID)
		}
	}
	r := scheduler.Round{
		Segment:   s.cursor,
		Blocks:    s.plan.Blocks(s.cursor),
		Jobs:      jobs,
		Completes: completes,
		// Every S^3 round is a freshly initialized merged sub-job
		// (§IV-D3 runtime sub-job initialization), and every sub-job
		// is a complete MapReduce job with its own reduce phase.
		FreshJobs:    1,
		SubJobReduce: true,
	}
	if s.shape != subJobs {
		// One job for the whole pass, set up at its first round and
		// reduced at its last.
		r.SubJobReduce, r.Tagged = false, s.shape == taggedJob
		if s.active[0].Remaining < s.plan.NumSegments() {
			r.FreshJobs = 0
		}
	}
	s.inFlight = true
	s.launchedFor = launched
	s.log.Addf(now, trace.RoundLaunched, -1, s.cursor, "s3 merged sub-job of %d job(s)", len(jobs))
	return r, true
}

// RoundDone implements Scheduler: lines 5–13 of Algorithm 1 — decrement
// every launched job's remaining sub-jobs, retire the finished ones
// from the active queue, and advance the segment cursor circularly.
func (s *S3) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	if !s.inFlight {
		panic("core: S3.RoundDone without a round in flight")
	}
	s.inFlight = false
	s.log.Addf(now, trace.RoundFinished, -1, r.Segment, "s3")
	var done []scheduler.JobID
	remaining := s.active[:0]
	for _, js := range s.active {
		if !s.launchedFor[js.Meta.ID] {
			// Submitted mid-round; it did not share this scan.
			remaining = append(remaining, js)
			continue
		}
		js.Remaining--
		if js.Remaining == 0 {
			done = append(done, js.Meta.ID)
			s.log.Addf(now, trace.JobCompleted, int(js.Meta.ID), r.Segment, "s3 started at segment %d", js.StartSegment)
			s.log.EndSpan(s.jobSpans[js.Meta.ID], now, trace.Arg{Key: "result", Value: "completed"})
			delete(s.jobSpans, js.Meta.ID)
			delete(s.seen, js.Meta.ID)
			continue
		}
		remaining = append(remaining, js)
	}
	// Zero the tail so retired *JobState values do not linger.
	for i := len(remaining); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = remaining
	s.launchedFor = nil

	s.cursor = s.plan.Next(s.cursor)
	s.log.Addf(now, trace.SegmentAdvanced, -1, s.cursor, "")
	s.emitHint()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return done
}

// emitHint derives one cursor advance's cache guidance; s.cursor
// already points at the next segment. Pin names it and the one after
// it: the cache keeps what the cursor reaches soonest, and the first
// pinned block tells it where the cursor stands. Prefetch names the
// segment *after* the new cursor — the cursor segment itself is being
// formed into the next round, so only s+2 gives the readahead a full
// round of lookahead — and only when some still-active job has at least
// two sub-jobs left, which (by the active-jobs-need-the-cursor
// invariant) guarantees that segment will be scanned: a speculative
// read of a never-scanned segment would charge a physical scan that
// cache transparency forbids.
func (s *S3) emitHint() {
	if s.hinter == nil {
		return
	}
	k := s.plan.NumSegments()
	next := s.plan.Next(s.cursor)
	h := dfs.ScanHint{
		File: s.plan.File().Name,
		Pin:  [][]dfs.BlockID{s.plan.Blocks(s.cursor)},
	}
	if k > 2 {
		h.Pin = append(h.Pin, s.plan.Blocks(next))
		for _, js := range s.active {
			if js.Remaining >= 2 {
				h.Prefetch = h.Pin[1]
				break
			}
		}
	}
	s.hinter(h)
}

// RequeueRound implements scheduler.Recoverable — the paper's dynamic
// sub-job adjustment extended to failure. The lost round's merged
// sub-jobs return to the queue: the cursor stays on the segment (it
// was never consumed), every job's Remaining is untouched, and the
// next NextRound re-forms the batch over the same segment — including
// any jobs that aligned while the lost round was in flight — so the
// round-robin segment order is preserved exactly.
func (s *S3) RequeueRound(r scheduler.Round, now vclock.Time) {
	if !s.inFlight {
		panic("core: S3.RequeueRound without a round in flight")
	}
	s.inFlight = false
	// A job that aligned while the lost round was in flight joins the
	// re-formed batch: it starts at the cursor segment after all.
	for _, js := range s.active {
		if !s.launchedFor[js.Meta.ID] {
			js.StartSegment = s.cursor
		}
	}
	s.launchedFor = nil
	for _, id := range r.JobIDs() {
		s.log.Addf(now, trace.SubJobRequeued, int(id), r.Segment, "s3 round lost; cursor stays at %d", s.cursor)
	}
}

// PendingJobs implements Scheduler.
func (s *S3) PendingJobs() int {
	if s.gate != nil {
		return len(s.active) + len(s.gate.waiting)
	}
	return len(s.active)
}
