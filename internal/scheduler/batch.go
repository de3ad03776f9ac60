package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Batch is the linear-pass baselines' one queue: jobs on a single file
// gather into batches, and a sealed batch scans the file from segment 0
// as one merged job, one round per segment, before the next batch
// starts. Hadoop FIFO (§II-B), MRShare's whole-file batches (§II-C),
// the time-window MRShare and S^3 without its circular scan (§IV-B,
// ablation X5) all run this way; they differ only in their seal rule —
// when a filling batch stops taking arrivals — and in how a round
// reaches the cluster.
//
// Execution is expressed in per-segment rounds so that every scheme
// pays identical per-round overheads in the cost model: a baseline is
// penalized only by what it shares, not by bookkeeping differences.
type Batch struct {
	name  string
	plan  *dfs.SegmentPlan
	log   *trace.Log
	shape roundShape

	// The seal rule. sizes set: MRShare's predetermined batch sizes.
	// maxBatch set: a member cap, and with window also the expiry of
	// window after the batch's first arrival. Neither: whoever waits
	// when the running pass ends.
	sizes    []int
	maxBatch int
	window   vclock.Duration

	seen     map[JobID]bool
	filling  []JobMeta   // members of the batch still taking arrivals
	firstAt  vclock.Time // arrival of filling's first member
	sealed   int         // batches sealed so far
	ready    [][]JobMeta // sealed batches awaiting their pass, oldest first
	cur      []JobMeta   // the batch whose pass is running, nil when idle
	next     int         // the segment cur scans next
	inFlight bool
	pending  int
}

// roundShape is how a batch's rounds reach the cluster.
type roundShape int

const (
	wholeJob  roundShape = iota // one job, submitted at its first round and reduced at its last (FIFO)
	taggedJob                   // one MRShare meta-job whose records carry their jobs' ids
	subJobs                     // every round a fresh S^3 sub-job with its own reduce
)

var (
	_ Queue   = (*Batch)(nil)
	_ Stalled = (*Batch)(nil)
)

func newBatch(name string, plan *dfs.SegmentPlan, shape roundShape, log *trace.Log) *Batch {
	return &Batch{name: name, plan: plan, shape: shape, log: log, seen: make(map[JobID]bool)}
}

// NewMRShare returns MRShare (Nykiel et al., PVLDB 2010, as the paper
// reimplements it): consecutive batches of the predetermined sizes
// batchSizes (e.g. [6,4] groups the first six submissions, then the
// next four), each run as one merged meta-job. The paper's MRS1, MRS2
// and MRS3 are [10], [6 4] and [3 3 4]; fixing them up front mirrors
// MRShare's assumption that the query pattern is known. log may be nil.
func NewMRShare(plan *dfs.SegmentPlan, batchSizes []int, log *trace.Log) (*Batch, error) {
	if len(batchSizes) == 0 {
		return nil, fmt.Errorf("scheduler: MRShare needs at least one batch size")
	}
	for i, n := range batchSizes {
		if n <= 0 {
			return nil, fmt.Errorf("scheduler: MRShare batch %d has size %d, want positive", i, n)
		}
	}
	b := newBatch("mrshare", plan, taggedJob, log)
	b.sizes = append([]int(nil), batchSizes...)
	return b, nil
}

// NewWindowMRShare is MRShare for the setting the paper criticizes it
// for not handling, job patterns unknown in advance (§II-C): a batch
// seals window seconds after its first member arrived or at maxBatch
// members, whichever comes first. log may be nil.
func NewWindowMRShare(plan *dfs.SegmentPlan, window vclock.Duration, maxBatch int, log *trace.Log) (*Batch, error) {
	if window <= 0 || maxBatch <= 0 {
		return nil, fmt.Errorf("scheduler: WindowMRShare window %v and maxBatch %d must be positive", window, maxBatch)
	}
	b := newBatch("mrshare-window", plan, taggedJob, log)
	b.window, b.maxBatch = window, maxBatch
	return b, nil
}

// NewNoCircular is S^3 without the circular scan (§IV-B): a job
// arriving while a pass is underway cannot align with it, so it waits
// for the pass to end, and every job waiting then shares the next pass
// from segment 0. Its rounds are S^3 sub-jobs; it loses only the
// start-anywhere property. log may be nil.
func NewNoCircular(plan *dfs.SegmentPlan, log *trace.Log) *Batch {
	return newBatch("s3-nocircular", plan, subJobs, log)
}

// NewFIFO reproduces Hadoop's default scheduler (§II-B) over the given
// segment plans (one per file): jobs run one after another in
// submission order, each scanning its whole input for itself. Every
// file's queue holds one-job batches, and the arbiter ranks a queue by
// its head job's submission order, so the order stays global across
// files. log may be nil.
func NewFIFO(plans []*dfs.SegmentPlan, log *trace.Log) (*Arbiter[*Batch], error) {
	var a *Arbiter[*Batch] // set before the first NextRound, the first rank
	rank := func(q *Batch) (int, bool) {
		head, ok := q.head()
		return -a.seen[head.ID], ok
	}
	a, err := NewArbiter("fifo", plans, func(p *dfs.SegmentPlan, _ int) (*Batch, error) { return fifoQueue(p, log), nil }, rank)
	return a, err
}

// fifoQueue is one file's FIFO queue: batches of one job.
func fifoQueue(plan *dfs.SegmentPlan, log *trace.Log) *Batch {
	b := newBatch("fifo", plan, wholeJob, log)
	b.maxBatch = 1
	return b
}

// NewMultiMRShare is MRShare batching per file: an Arbiter that serves
// files with a runnable batch round-robin. A file batches by
// sizes(file); one registered mid-run for which that is empty (a DAG
// stage's output) merges all its expected readers into one scan —
// MRShare assumes the query pattern is known, and the dependency edges
// name every consumer. log may be nil.
func NewMultiMRShare(plans []*dfs.SegmentPlan, sizes func(file string) []int, log *trace.Log) (*Arbiter[*Batch], error) {
	build := func(p *dfs.SegmentPlan, expectJobs int) (*Batch, error) {
		batches := sizes(p.File().Name)
		if len(batches) == 0 && expectJobs > 0 {
			batches = []int{expectJobs}
		}
		return NewMRShare(p, batches, log)
	}
	return NewArbiter("mrshare-multifile", plans, build, func(q *Batch) (int, bool) { return 0, q.runnable() })
}

// Name implements Scheduler.
func (b *Batch) Name() string { return b.name }

// Submit implements Scheduler.
func (b *Batch) Submit(job JobMeta, at vclock.Time) error {
	if b.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if job.File != b.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", ErrWrongFile, job.ID, job.File, b.plan.File().Name)
	}
	if b.sizes != nil && b.sealed == len(b.sizes) {
		return fmt.Errorf("scheduler: MRShare batch plan %v is full; job %d exceeds it", b.sizes, job.ID)
	}
	// The clock has reached at: a batch whose window expired before
	// this arrival must not absorb it.
	b.sealIfDue(at, false)
	b.seen[job.ID] = true
	b.pending++
	if len(b.filling) == 0 {
		b.firstAt = at
	}
	b.filling = append(b.filling, job.Normalized())
	b.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "%s batch %d filling (%d waiting)", b.name, b.sealed, len(b.filling))
	b.sealIfDue(at, false)
	return nil
}

// sealIfDue moves the filling batch to the ready queue when its seal
// rule says so as of now; passEnded reports that no pass is running.
func (b *Batch) sealIfDue(now vclock.Time, passEnded bool) {
	n := len(b.filling)
	var due bool
	switch {
	case n == 0:
		return
	case b.sizes != nil:
		due = n == b.sizes[b.sealed]
	case b.maxBatch == 0:
		due = passEnded
	default:
		due = n >= b.maxBatch || (b.window > 0 && now >= b.firstAt.Add(b.window))
	}
	if !due {
		return
	}
	b.log.Addf(now, trace.BatchAdjusted, -1, -1, "%s batch %d of %d sealed", b.name, b.sealed, n)
	b.ready = append(b.ready, b.filling)
	b.filling = nil
	b.sealed++
}

// NextRound implements Scheduler: the running batch scans its next
// segment, or the oldest sealed batch starts its pass at segment 0.
func (b *Batch) NextRound(now vclock.Time) (Round, bool) {
	if b.inFlight {
		panic(fmt.Sprintf("scheduler: %s.NextRound called with a round in flight", b.name))
	}
	b.sealIfDue(now, b.cur == nil)
	if b.cur == nil {
		if len(b.ready) == 0 {
			return Round{}, false
		}
		b.cur, b.ready, b.next = b.ready[0], b.ready[1:], 0
	}
	r := Round{
		Segment:      b.next,
		Blocks:       b.plan.Blocks(b.next),
		Jobs:         b.cur,
		Tagged:       b.shape == taggedJob,
		SubJobReduce: b.shape == subJobs,
	}
	if b.next == 0 || b.shape == subJobs {
		r.FreshJobs = 1
	}
	if b.next == b.plan.NumSegments()-1 {
		r.Completes = r.JobIDs()
	}
	b.inFlight = true
	b.log.Addf(now, trace.RoundLaunched, -1, b.next, "%s batch of %d", b.name, len(b.cur))
	return r, true
}

// RoundDone implements Scheduler: the running batch advances past its
// just-scanned segment and retires whole when that was the last one.
func (b *Batch) RoundDone(r Round, now vclock.Time) []JobID {
	if !b.inFlight {
		panic(fmt.Sprintf("scheduler: %s.RoundDone without a round in flight", b.name))
	}
	b.inFlight = false
	b.log.Addf(now, trace.RoundFinished, -1, r.Segment, "%s", b.name)
	b.next++
	if b.next < b.plan.NumSegments() {
		return nil
	}
	done := make([]JobID, len(b.cur))
	for i, j := range b.cur {
		done[i] = j.ID
		b.log.Addf(now, trace.JobCompleted, int(j.ID), -1, "%s", b.name)
	}
	b.pending -= len(done)
	b.cur = nil
	return done
}

// RequeueRound implements Recoverable: a linear pass has no sub-job
// structure to re-form, so the lost round is resubmitted whole — the
// running batch's segment progress is unchanged.
func (b *Batch) RequeueRound(r Round, now vclock.Time) {
	if !b.inFlight {
		panic(fmt.Sprintf("scheduler: %s.RequeueRound without a round in flight", b.name))
	}
	b.inFlight = false
	b.log.Addf(now, trace.SubJobRequeued, -1, r.Segment, "%s batch round lost; resubmitting", b.name)
}

// PendingJobs implements Scheduler.
func (b *Batch) PendingJobs() int { return b.pending }

// Stalled implements Stalled: no runnable work and no timer, yet a
// batch is filling that only future submissions can seal. The driver
// uses it to tell "idle until the next arrival" from a dead batch plan.
func (b *Batch) Stalled() bool { return !b.runnable() && len(b.filling) > 0 && b.window == 0 }

// NextWake reports when the filling batch's window expires, so the
// driver can wake the scheduler even with no arrivals left.
func (b *Batch) NextWake(vclock.Time) (vclock.Time, bool) {
	if len(b.filling) == 0 || b.window == 0 {
		return 0, false
	}
	return b.firstAt.Add(b.window), true
}

// runnable reports whether NextRound would form a round (a window that
// expires by then aside).
func (b *Batch) runnable() bool {
	_, ok := b.head()
	return ok
}

// head returns the first job of the batch NextRound would run.
func (b *Batch) head() (JobMeta, bool) {
	switch {
	case b.cur != nil:
		return b.cur[0], true
	case len(b.ready) > 0:
		return b.ready[0][0], true
	case b.sizes == nil && b.maxBatch == 0 && len(b.filling) > 0:
		return b.filling[0], true // the pass has ended: NextRound seals it
	}
	return JobMeta{}, false
}
