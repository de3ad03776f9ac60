package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Every scheme of the paper's evaluation is S^3's Job Queue Manager —
// a cursor, and active jobs that each have a start segment and a count
// of sub-jobs left — that differs only in when a waiting job is
// admitted and in how its rounds reach the cluster. S^3 admits on
// arrival (§IV-C). Hadoop FIFO (§II-B), MRShare (§II-C), time-window
// MRShare and S^3 without its circular scan (§IV-B) admit only into an
// empty queue, a batch at a time: the batch then shares one pass, one
// round per segment, and ends it together, so the cursor is back where
// it started — at segment 0, since nothing else moves it. S^3 without
// dynamic sub-job adjustment (§IV-D2) admits a job arriving to an idle,
// empty queue at once and holds later ones until the queue empties.
//
// Every scheme runs per-segment rounds, so they all pay identical
// per-round overheads in the cost model: a baseline is penalized only by
// what it shares, not by bookkeeping differences.

// roundShape is how a queue's rounds reach the cluster.
type roundShape int

const (
	subJobs   roundShape = iota // every round a fresh S^3 sub-job with its own reduce
	wholeJob                    // one job, submitted at its first round and reduced at its last (FIFO)
	taggedJob                   // one MRShare meta-job whose records carry their jobs' ids
)

// gate holds arrivals back until an empty queue admits them.
type gate struct {
	// The seal rule: when the batch filling at waiting's tail stops
	// taking arrivals. sizes set: MRShare's predetermined batch sizes.
	// maxBatch set: a member cap, and with window also the expiry of
	// window after the batch's first arrival. Neither: no seal, the
	// queue admits everyone waiting when it empties.
	sizes    []int
	maxBatch int
	window   vclock.Duration
	// onIdle admits an arrival to an idle, empty queue at once.
	onIdle bool

	waiting []JobState  // held back, in arrival order
	ready   []int       // sizes of the sealed batches at waiting's head, oldest first
	inReady int         // waiting's members in ready's batches
	firstAt vclock.Time // arrival of the filling batch's first member
	sealed  int         // batches sealed so far
}

// hold queues an arrival behind the gate.
func (g *gate) hold(js JobState) error {
	if g.sizes != nil && g.sealed == len(g.sizes) {
		return fmt.Errorf("core: MRShare batch plan %v is full; job %d exceeds it", g.sizes, js.Meta.ID)
	}
	// The clock has reached the arrival: a batch whose window expired
	// before it must not take it.
	g.seal(js.SubmittedAt)
	if g.filling() == 0 {
		g.firstAt = js.SubmittedAt
	}
	g.waiting = append(g.waiting, js)
	g.seal(js.SubmittedAt)
	return nil
}

// filling is how many waiting jobs no sealed batch holds.
func (g *gate) filling() int { return len(g.waiting) - g.inReady }

// seal closes the filling batch when its rule says so as of now.
func (g *gate) seal(now vclock.Time) {
	n, limit := g.filling(), g.maxBatch
	if n > 0 && g.sizes != nil {
		limit = g.sizes[g.sealed]
	}
	if n > 0 && limit > 0 && (n >= limit || g.window > 0 && now >= g.firstAt.Add(g.window)) {
		g.ready = append(g.ready, n)
		g.inReady += n
		g.sealed++
	}
}

// batch is how many waiting jobs an empty queue admits: the oldest
// sealed batch, or, without a seal rule, everyone waiting.
func (g *gate) batch() int {
	if len(g.ready) > 0 {
		return g.ready[0]
	}
	if g.sizes == nil && g.maxBatch == 0 {
		return len(g.waiting)
	}
	return 0
}

// admitWaiting seals what is due by now and, when the queue is empty,
// admits the gate's next batch: every member starts at the cursor with
// all its sub-jobs to go.
func (s *S3) admitWaiting(now vclock.Time) {
	g := s.gate
	g.seal(now)
	n := g.batch()
	if len(s.active) > 0 || n == 0 {
		return
	}
	if len(g.ready) > 0 {
		g.ready, g.inReady = g.ready[1:], g.inReady-n
	}
	for _, js := range g.waiting[:n] {
		s.admit(js.Meta, js.SubmittedAt)
	}
	g.waiting = g.waiting[n:]
	s.log.Addf(now, trace.BatchAdjusted, -1, s.cursor, "%s admitted %d waiting job(s)", s.name, n)
}

// head returns the first job of the batch NextRound would run.
func (s *S3) head() (scheduler.JobMeta, bool) {
	switch {
	case len(s.active) > 0:
		return s.active[0].Meta, true
	case s.gate != nil && s.gate.batch() > 0:
		return s.gate.waiting[0].Meta, true
	}
	return scheduler.JobMeta{}, false
}

// Stalled implements scheduler.Stalled: no runnable work and no timer,
// yet a batch is filling that only future submissions can seal. The
// driver uses it to tell "idle until the next arrival" from a dead
// batch plan.
func (s *S3) Stalled() bool {
	_, runnable := s.head()
	return !runnable && s.gate != nil && s.gate.window == 0 && s.gate.filling() > 0
}

// NextWake reports when the filling batch's window expires, so the
// driver can wake the scheduler even with no arrivals left.
func (s *S3) NextWake(vclock.Time) (vclock.Time, bool) {
	if s.gate == nil || s.gate.window == 0 || s.gate.filling() == 0 {
		return 0, false
	}
	return s.gate.firstAt.Add(s.gate.window), true
}

// gated returns a queue called name behind gate g.
func gated(name string, plan *dfs.SegmentPlan, shape roundShape, g *gate, log *trace.Log) *S3 {
	s := New(plan, log)
	s.name, s.shape, s.gate = name, shape, g
	return s
}

// NewMRShare returns MRShare (Nykiel et al., PVLDB 2010, as the paper
// reimplements it): consecutive batches of the predetermined sizes
// batchSizes (e.g. [6,4] groups the first six submissions, then the
// next four), each run as one merged meta-job. The paper's MRS1, MRS2
// and MRS3 are [10], [6 4] and [3 3 4]; fixing them up front mirrors
// MRShare's assumption that the query pattern is known. log may be nil.
func NewMRShare(plan *dfs.SegmentPlan, batchSizes []int, log *trace.Log) (*S3, error) {
	if len(batchSizes) == 0 {
		return nil, fmt.Errorf("core: MRShare needs at least one batch size")
	}
	for i, n := range batchSizes {
		if n <= 0 {
			return nil, fmt.Errorf("core: MRShare batch %d has size %d, want positive", i, n)
		}
	}
	return gated("mrshare", plan, taggedJob, &gate{sizes: append([]int(nil), batchSizes...)}, log), nil
}

// NewWindowMRShare is MRShare for the setting the paper criticizes it
// for not handling, job patterns unknown in advance (§II-C): a batch
// seals window seconds after its first member arrived or at maxBatch
// members, whichever comes first. log may be nil.
func NewWindowMRShare(plan *dfs.SegmentPlan, window vclock.Duration, maxBatch int, log *trace.Log) (*S3, error) {
	if window <= 0 || maxBatch <= 0 {
		return nil, fmt.Errorf("core: WindowMRShare window %v and maxBatch %d must be positive", window, maxBatch)
	}
	return gated("mrshare-window", plan, taggedJob, &gate{window: window, maxBatch: maxBatch}, log), nil
}

// NewNoCircular is S^3 without the circular scan (§IV-B): a job
// arriving while a pass is underway cannot align with it, so it waits
// for the pass to end, and every job waiting then shares the next pass
// from segment 0. It loses only the start-anywhere property. log may
// be nil.
func NewNoCircular(plan *dfs.SegmentPlan, log *trace.Log) *S3 {
	return gated("s3-nocircular", plan, subJobs, &gate{}, log)
}

// NewStatic is S^3 without dynamic sub-job adjustment (§IV-D2): a job
// that arrives while the queue has active work waits until every
// current job has completed. Jobs held together still share their scan
// with each other once admitted. log may be nil.
func NewStatic(plan *dfs.SegmentPlan, log *trace.Log) *S3 {
	return gated("s3-static", plan, subJobs, &gate{onIdle: true}, log)
}

// NewFIFO reproduces Hadoop's default scheduler (§II-B) over the given
// segment plans (one per file): jobs run one after another in
// submission order, each scanning its whole input for itself. Every
// file's queue admits one job at a time, and the arbiter ranks a queue
// by its head job's submission order, so the order stays global across
// files. log may be nil.
func NewFIFO(plans []*dfs.SegmentPlan, log *trace.Log) (*scheduler.Arbiter[*S3], error) {
	var a *scheduler.Arbiter[*S3] // set before the first NextRound, the first rank
	rank := func(q *S3) (int, bool) {
		head, ok := q.head()
		return -a.SubmissionOrder(head.ID), ok
	}
	build := func(p *dfs.SegmentPlan, _ int) (*S3, error) {
		return gated("fifo", p, wholeJob, &gate{maxBatch: 1}, log), nil
	}
	a, err := scheduler.NewArbiter("fifo", plans, build, rank)
	return a, err
}

// NewMultiMRShare is MRShare batching per file: an Arbiter that serves
// files with a runnable batch round-robin. A file batches by
// sizes(file); one registered mid-run for which that is empty (a DAG
// stage's output) merges all its expected readers into one scan —
// MRShare assumes the query pattern is known, and the dependency edges
// name every consumer. log may be nil.
func NewMultiMRShare(plans []*dfs.SegmentPlan, sizes func(file string) []int, log *trace.Log) (*scheduler.Arbiter[*S3], error) {
	build := func(p *dfs.SegmentPlan, expectJobs int) (*S3, error) {
		batches := sizes(p.File().Name)
		if len(batches) == 0 && expectJobs > 0 {
			batches = []int{expectJobs}
		}
		return NewMRShare(p, batches, log)
	}
	return scheduler.NewArbiter("mrshare-multifile", plans, build, func(q *S3) (int, bool) {
		_, ok := q.head()
		return 0, ok
	})
}
