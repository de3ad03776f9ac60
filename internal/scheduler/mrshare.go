package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// MRShare reproduces the file-based shared-scan baseline the paper
// compares against (§II-C, adapted from Nykiel et al., PVLDB 2010):
// jobs are grouped into predetermined batches; a batch waits until its
// last member has been submitted, then the whole batch runs as one
// merged job sharing a single scan of the entire file from the
// beginning.
//
// The batch composition is fixed up front (the paper's MRS1/MRS2/MRS3
// variants are batch-size lists [10], [6 4] and [3 3 4]), which mirrors
// MRShare's assumption that query patterns are known in advance.
type MRShare struct {
	plan  *dfs.SegmentPlan
	log   *trace.Log
	sizes []int

	seen      map[JobID]bool
	submitted int         // total jobs submitted so far
	filling   []JobMeta   // members of the batch currently accumulating
	fillIdx   int         // index of the batch being filled
	ready     [][]JobMeta // complete batches awaiting execution, FIFO
	cur       *mrshareRun
	inFlight  bool
	pending   int
}

type mrshareRun struct {
	jobs []JobMeta
	next int // next segment (linear 0..k-1)
}

// NewMRShare returns an MRShare scheduler whose consecutive batch
// sizes are batchSizes (e.g. [6,4] groups the first six submissions,
// then the next four). log may be nil.
func NewMRShare(plan *dfs.SegmentPlan, batchSizes []int, log *trace.Log) (*MRShare, error) {
	if len(batchSizes) == 0 {
		return nil, fmt.Errorf("scheduler: MRShare needs at least one batch size")
	}
	for i, n := range batchSizes {
		if n <= 0 {
			return nil, fmt.Errorf("scheduler: MRShare batch %d has size %d, want positive", i, n)
		}
	}
	sizes := make([]int, len(batchSizes))
	copy(sizes, batchSizes)
	return &MRShare{plan: plan, log: log, sizes: sizes, seen: make(map[JobID]bool)}, nil
}

// Name implements Scheduler.
func (m *MRShare) Name() string { return "mrshare" }

// capacity returns the total number of jobs the batch plan covers.
func (m *MRShare) capacity() int {
	total := 0
	for _, n := range m.sizes {
		total += n
	}
	return total
}

// Submit implements Scheduler.
func (m *MRShare) Submit(job JobMeta, at vclock.Time) error {
	if m.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if job.File != m.plan.File().Name {
		return fmt.Errorf("%w: job %d reads %q, plan is for %q", ErrWrongFile, job.ID, job.File, m.plan.File().Name)
	}
	if m.submitted >= m.capacity() {
		return fmt.Errorf("scheduler: MRShare batch plan %v covers %d jobs; job %d exceeds it", m.sizes, m.capacity(), job.ID)
	}
	m.seen[job.ID] = true
	m.submitted++
	m.pending++
	m.filling = append(m.filling, job.Normalized())
	m.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "mrshare batch %d (%d/%d)", m.fillIdx, len(m.filling), m.sizes[m.fillIdx])
	if len(m.filling) == m.sizes[m.fillIdx] {
		m.ready = append(m.ready, m.filling)
		m.filling = nil
		m.fillIdx++
	}
	return nil
}

// NextRound implements Scheduler.
func (m *MRShare) NextRound(now vclock.Time) (Round, bool) {
	if m.inFlight {
		panic("scheduler: MRShare.NextRound called with a round in flight")
	}
	if m.cur == nil {
		if len(m.ready) == 0 {
			return Round{}, false
		}
		m.cur = &mrshareRun{jobs: m.ready[0]}
		m.ready = m.ready[1:]
	}
	seg := m.cur.next
	r := Round{
		Segment: seg,
		Blocks:  m.plan.Blocks(seg),
		Jobs:    m.cur.jobs,
		Tagged:  true, // MRShare merges jobs via record tagging
	}
	if seg == 0 {
		r.FreshJobs = 1 // the merged batch is submitted as one job
	}
	if seg == m.plan.NumSegments()-1 {
		r.Completes = r.JobIDs()
	}
	m.inFlight = true
	m.log.Addf(now, trace.RoundLaunched, -1, seg, "mrshare batch of %d", len(m.cur.jobs))
	return r, true
}

// RoundDone implements Scheduler.
func (m *MRShare) RoundDone(r Round, now vclock.Time) []JobID {
	if !m.inFlight {
		panic("scheduler: MRShare.RoundDone without a round in flight")
	}
	m.inFlight = false
	m.log.Addf(now, trace.RoundFinished, -1, r.Segment, "mrshare")
	m.cur.next++
	if m.cur.next == m.plan.NumSegments() {
		done := make([]JobID, len(m.cur.jobs))
		for i, j := range m.cur.jobs {
			done[i] = j.ID
			m.log.Addf(now, trace.JobCompleted, int(j.ID), -1, "mrshare")
		}
		m.pending -= len(done)
		m.cur = nil
		return done
	}
	return nil
}

var _ Recoverable = (*MRShare)(nil)

// RequeueRound implements Recoverable: the lost round is resubmitted
// whole — the merged batch's segment progress is unchanged.
func (m *MRShare) RequeueRound(r Round, now vclock.Time) {
	if !m.inFlight {
		panic("scheduler: MRShare.RequeueRound without a round in flight")
	}
	m.inFlight = false
	m.log.Addf(now, trace.SubJobRequeued, -1, r.Segment, "mrshare batch round lost; resubmitting")
}

// PendingJobs implements Scheduler.
func (m *MRShare) PendingJobs() int { return m.pending }

// Stalled reports whether the scheduler is permanently stuck: no
// runnable work, yet unfinished jobs are waiting in a batch that can
// only become ready through future submissions. The driver uses this
// to distinguish "idle until the next arrival" from a dead batch plan.
func (m *MRShare) Stalled() bool { return !m.runnable() && len(m.filling) > 0 }

// runnable reports whether NextRound would form a round.
func (m *MRShare) runnable() bool { return m.cur != nil || len(m.ready) > 0 }

// NewMultiMRShare is MRShare batching per file: an Arbiter that serves
// files with a runnable batch round-robin. A file batches by
// sizes(file); one registered mid-run for which that is empty (a DAG
// stage's output) merges all its expected readers into one scan —
// MRShare assumes the query pattern is known, and the dependency edges
// name every consumer. log may be nil.
func NewMultiMRShare(plans []*dfs.SegmentPlan, sizes func(file string) []int, log *trace.Log) (*Arbiter[*MRShare], error) {
	build := func(p *dfs.SegmentPlan, expectJobs int) (*MRShare, error) {
		batches := sizes(p.File().Name)
		if len(batches) == 0 && expectJobs > 0 {
			batches = []int{expectJobs}
		}
		return NewMRShare(p, batches, log)
	}
	return NewArbiter("mrshare-multifile", plans, build, func(q *MRShare) (int, bool) { return 0, q.runnable() })
}

var _ Stalled = (*Arbiter[*MRShare])(nil)
