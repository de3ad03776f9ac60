package scheduler_test

import (
	"errors"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// makePlan builds a k-segment plan over a metadata file with m blocks
// per segment.
func makePlan(t *testing.T, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("input", numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

// newFIFO builds a FIFO over the plans; log may be nil.
func newFIFO(t *testing.T, log *trace.Log, plans ...*dfs.SegmentPlan) *scheduler.Arbiter[*core.S3] {
	t.Helper()
	f, err := core.NewFIFO(plans, log)
	if err != nil {
		t.Fatalf("core.NewFIFO: %v", err)
	}
	return f
}

func job(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), Name: "j", File: "input", Weight: 1, ReduceWeight: 1}
}

// drain runs the scheduler until idle, returning the rounds executed
// and the completion order.
func drain(t *testing.T, s scheduler.Scheduler) (rounds []scheduler.Round, completed []scheduler.JobID) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("drain did not terminate")
		}
		r, ok := s.NextRound(0)
		if !ok {
			return rounds, completed
		}
		rounds = append(rounds, r)
		completed = append(completed, s.RoundDone(r, 0)...)
	}
}

func TestFIFOSingleJob(t *testing.T) {
	p := makePlan(t, 12, 3) // 4 segments
	f := newFIFO(t, nil, p)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	rounds, completed := drain(t, f)
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(rounds))
	}
	for i, r := range rounds {
		if r.Segment != i {
			t.Errorf("round %d segment = %d, want %d (FIFO scans from the beginning)", i, r.Segment, i)
		}
		if len(r.Jobs) != 1 || r.Jobs[0].ID != 1 {
			t.Errorf("round %d jobs = %v", i, r.Jobs)
		}
	}
	if len(rounds[3].Completes) != 1 || rounds[3].Completes[0] != 1 {
		t.Errorf("final round completes = %v", rounds[3].Completes)
	}
	if len(completed) != 1 || completed[0] != 1 {
		t.Errorf("completed = %v", completed)
	}
	if f.PendingJobs() != 0 {
		t.Errorf("pending = %d", f.PendingJobs())
	}
}

func TestFIFORunsJobsSequentially(t *testing.T) {
	p := makePlan(t, 6, 3) // 2 segments
	f := newFIFO(t, nil, p)
	for i := 1; i <= 3; i++ {
		if err := f.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds, completed := drain(t, f)
	if len(rounds) != 6 {
		t.Fatalf("rounds = %d, want 6 (3 jobs x 2 segments, no sharing)", len(rounds))
	}
	// Every round carries exactly one job; jobs run in order.
	wantJobs := []scheduler.JobID{1, 1, 2, 2, 3, 3}
	for i, r := range rounds {
		if len(r.Jobs) != 1 || r.Jobs[0].ID != wantJobs[i] {
			t.Errorf("round %d jobs = %v, want [%d]", i, r.JobIDs(), wantJobs[i])
		}
	}
	if want := []scheduler.JobID{1, 2, 3}; len(completed) != 3 || completed[0] != want[0] || completed[1] != want[1] || completed[2] != want[2] {
		t.Errorf("completion order = %v, want %v", completed, want)
	}
}

func TestFIFOLateArrivalQueues(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	f := newFIFO(t, nil, p)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, _ := f.NextRound(0)
	// Job 2 arrives while job 1 runs; it must wait for both of job
	// 1's segments.
	if err := f.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	f.RoundDone(r1, 10)
	r2, _ := f.NextRound(10)
	if r2.Jobs[0].ID != 1 {
		t.Fatalf("round 2 runs job %d, want 1 (no preemption)", r2.Jobs[0].ID)
	}
	done := f.RoundDone(r2, 20)
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("done = %v", done)
	}
	r3, _ := f.NextRound(20)
	if r3.Jobs[0].ID != 2 || r3.Segment != 0 {
		t.Fatalf("job 2 should start from segment 0, got %+v", r3)
	}
}

func TestFIFODuplicateAndWrongFile(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := newFIFO(t, trace.MustNew(16), p)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(job(1), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("duplicate submit err = %v, want scheduler.ErrDuplicateJob", err)
	}
	bad := job(2)
	bad.File = "other"
	if err := f.Submit(bad, 0); !errors.Is(err, scheduler.ErrWrongFile) {
		t.Errorf("wrong-file submit err = %v, want scheduler.ErrWrongFile", err)
	}
}

func TestFIFOProtocolViolationsPanic(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := newFIFO(t, nil, p)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextRound with round in flight should panic")
			}
		}()
		f.NextRound(0)
	}()
	f.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RoundDone without round in flight should panic")
			}
		}()
		f.RoundDone(r, 1)
	}()
}

func TestFIFOIdleWhenEmpty(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := newFIFO(t, nil, p)
	if _, ok := f.NextRound(0); ok {
		t.Error("NextRound on empty scheduler should report no work")
	}
	if f.Name() != "fifo" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestFIFOWeightNormalization(t *testing.T) {
	p := makePlan(t, 2, 2)
	f := newFIFO(t, nil, p)
	j := scheduler.JobMeta{ID: 1, File: "input"} // zero weights
	if err := f.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	if r.Jobs[0].Weight != 1 || r.Jobs[0].ReduceWeight != 1 {
		t.Errorf("weights not defaulted: %+v", r.Jobs[0])
	}
}
