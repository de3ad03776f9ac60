package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// FIFO reproduces Hadoop's default scheduler (paper §II-B): jobs run
// one after another in submission order, each scanning its whole input
// file from the beginning for itself. There is no sharing: a job
// arriving while another runs waits for every job ahead of it. Over
// several files (one plan is the paper's case) the queue stays global:
// FIFO holds a plan set, not per-file queues.
//
// Execution is still expressed in per-segment rounds so that all
// schemes pay identical per-round overheads in the cost model — FIFO
// is penalized only by its lack of sharing, not by bookkeeping
// differences.
type FIFO struct {
	log   *trace.Log
	plans map[string]*dfs.SegmentPlan
	order []string  // file names in registration order
	queue []JobMeta // waiting jobs, head first
	cur   *fifoRun  // job currently executing, nil when idle
	seen  map[JobID]bool
	// inFlight guards the serial-round protocol.
	inFlight bool
	pending  int
}

var (
	_ Recoverable   = (*FIFO)(nil)
	_ PlanRegistrar = (*FIFO)(nil)
)

type fifoRun struct {
	job  JobMeta
	plan *dfs.SegmentPlan
	next int // next segment index to scan (linear 0..k-1)
}

// NewFIFO returns a FIFO scheduler over the given segment plans (one
// per file). log may be nil.
func NewFIFO(plans []*dfs.SegmentPlan, log *trace.Log) (*FIFO, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("scheduler: fifo needs at least one segment plan")
	}
	f := &FIFO{log: log, plans: make(map[string]*dfs.SegmentPlan), seen: make(map[JobID]bool)}
	for _, p := range plans {
		if err := f.AddPlan(p, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// AddPlan implements PlanRegistrar.
func (f *FIFO) AddPlan(p *dfs.SegmentPlan, _ int) error {
	file := p.File().Name
	if f.inFlight {
		return fmt.Errorf("scheduler: fifo.AddPlan(%q) with a round in flight", file)
	}
	if _, dup := f.plans[file]; dup {
		return fmt.Errorf("scheduler: fifo already has a plan for file %q", file)
	}
	f.plans[file] = p
	f.order = append(f.order, file)
	return nil
}

// Files returns the registered file names in registration order.
func (f *FIFO) Files() []string { return append([]string(nil), f.order...) }

// Submit implements Scheduler.
func (f *FIFO) Submit(job JobMeta, at vclock.Time) error {
	if f.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if _, ok := f.plans[job.File]; !ok {
		return fmt.Errorf("%w: job %d reads %q, no such file registered", ErrWrongFile, job.ID, job.File)
	}
	f.seen[job.ID] = true
	f.pending++
	f.queue = append(f.queue, job.Normalized())
	f.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "fifo queue depth %d", len(f.queue))
	return nil
}

// NextRound implements Scheduler.
func (f *FIFO) NextRound(now vclock.Time) (Round, bool) {
	if f.inFlight {
		panic("scheduler: FIFO.NextRound called with a round in flight")
	}
	if f.cur == nil {
		if len(f.queue) == 0 {
			return Round{}, false
		}
		job := f.queue[0]
		f.queue = f.queue[1:]
		f.cur = &fifoRun{job: job, plan: f.plans[job.File]}
	}
	seg := f.cur.next
	r := Round{
		Segment: seg,
		Blocks:  f.cur.plan.Blocks(seg),
		Jobs:    []JobMeta{f.cur.job},
	}
	if seg == 0 {
		r.FreshJobs = 1 // the job is submitted once, at its first wave
	}
	if seg == f.cur.plan.NumSegments()-1 {
		r.Completes = []JobID{f.cur.job.ID}
	}
	f.inFlight = true
	f.log.Addf(now, trace.RoundLaunched, int(f.cur.job.ID), seg, "fifo")
	return r, true
}

// RoundDone implements Scheduler: the running job advances past its
// just-scanned segment and retires when that was the last one.
func (f *FIFO) RoundDone(r Round, now vclock.Time) []JobID {
	if !f.inFlight {
		panic("scheduler: FIFO.RoundDone without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.RoundFinished, int(f.cur.job.ID), r.Segment, "fifo")
	f.cur.next++
	if f.cur.next == f.cur.plan.NumSegments() {
		done := f.cur.job.ID
		f.cur = nil
		f.pending--
		f.log.Addf(now, trace.JobCompleted, int(done), -1, "fifo")
		return []JobID{done}
	}
	return nil
}

// RequeueRound implements Recoverable: FIFO has no sub-job structure,
// so a lost round is simply resubmitted — the running job's segment
// progress is unchanged and the next NextRound re-forms the same
// round.
func (f *FIFO) RequeueRound(r Round, now vclock.Time) {
	if !f.inFlight {
		panic("scheduler: FIFO.RequeueRound without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.SubJobRequeued, int(f.cur.job.ID), r.Segment, "fifo round lost; resubmitting")
}

// PendingJobs implements Scheduler.
func (f *FIFO) PendingJobs() int { return f.pending }
