package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

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

func job(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: "input", Weight: 1, ReduceWeight: 1}
}

// fixed returns an executor where every round takes d seconds.
func fixed(d vclock.Duration) Executor {
	return ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) { return d, nil })
}

func TestRunFIFOSequential(t *testing.T) {
	p := makePlan(t, 10, 1) // 10 segments, 10s each -> 100s per job
	f, err := core.NewFIFO([]*dfs.SegmentPlan{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTrace(f, fixed(10), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 20},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tet, _ := metrics.TET(res.Jobs)
	art, _ := metrics.ART(res.Jobs)
	if tet != 200 || art != 140 {
		t.Errorf("FIFO TET/ART = %v/%v, want 200/140 (paper Example 1)", tet, art)
	}
	if res.Rounds != 20 {
		t.Errorf("rounds = %d, want 20", res.Rounds)
	}
}

// An open-loop replay on the wall clock, as a daemon keeps time: rounds
// report the wall time they took, and arrivals 20 ms apart are admitted
// when they are due, not as fast as the loop can pop them — so the run
// ends no earlier than the last arrival, and every job is submitted at
// its own time.
func TestRunTraceOnWallClock(t *testing.T) {
	exec := ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) {
		began := time.Now()
		time.Sleep(time.Millisecond)
		return vclock.Duration(time.Since(began).Seconds()), nil
	})
	var arrivals []Arrival
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, Arrival{Job: job(i + 1), At: vclock.Time(0.02 * float64(i))})
	}
	clock := vclock.NewWallSince(time.Now())
	res, err := RunTrace(core.New(makePlan(t, 4, 1), nil), exec, arrivals, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	last := arrivals[len(arrivals)-1].At
	if res.End < last || clock.Now() < res.End {
		t.Errorf("run ended at %v (clock now %v), want no earlier than the last arrival at %v", res.End, clock.Now(), last)
	}
	for i, j := range res.Jobs {
		if j.ID != arrivals[i].Job.ID || j.AdmittedAt != arrivals[i].At || j.StartedAt < j.AdmittedAt {
			t.Errorf("job %d submitted at %v and started at %v, want job %d submitted at %v", j.ID, j.AdmittedAt, j.StartedAt, arrivals[i].Job.ID, arrivals[i].At)
		}
	}
}

func TestRunS3SharedScan(t *testing.T) {
	p := makePlan(t, 10, 1)
	s := core.New(p, nil)
	res, err := RunTrace(s, fixed(10), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 20},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tet, _ := metrics.TET(res.Jobs)
	art, _ := metrics.ART(res.Jobs)
	if tet != 120 || art != 100 {
		t.Errorf("S3 TET/ART = %v/%v, want 120/100 (paper Example 3)", tet, art)
	}
	// 12 rounds: segments 0..9 for job 1, plus 0,1 again for job 2.
	if res.Rounds != 12 {
		t.Errorf("rounds = %d, want 12", res.Rounds)
	}
}

func TestRunIdleGapBetweenJobs(t *testing.T) {
	p := makePlan(t, 2, 1) // 2 segments, job takes 2 rounds
	s := core.New(p, nil)
	res, err := RunTrace(s, fixed(5), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 100}, // long after job 1 finished
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt1 := res.Jobs[0].DoneAt.Sub(res.Jobs[0].AdmittedAt)
	rt2 := res.Jobs[1].DoneAt.Sub(res.Jobs[1].AdmittedAt)
	if rt1 != 10 || rt2 != 10 {
		t.Errorf("response times = %v/%v, want 10/10 (no interference)", rt1, rt2)
	}
	tet, _ := metrics.TET(res.Jobs)
	if tet != 110 {
		t.Errorf("TET = %v, want 110 (idle gap included)", tet)
	}
	if res.End != 110 {
		t.Errorf("End = %v, want 110", res.End)
	}
}

func TestRunArrivalsUnsorted(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	res, err := RunTrace(s, fixed(1), []Arrival{
		{Job: job(2), At: 50},
		{Job: job(1), At: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Errorf("jobs = %d", len(res.Jobs))
	}
}

func TestRunRejectsNegativeArrival(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	if _, err := RunTrace(s, fixed(1), []Arrival{{Job: job(1), At: -5}}, Options{}); err == nil {
		t.Error("negative arrival should fail")
	}
}

func TestRunExecutorErrorPropagates(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	boom := errors.New("exec-fail")
	exec := ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) { return 0, boom })
	if _, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

func TestRunNegativeDurationRejected(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	exec := ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) { return -1, nil })
	if _, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{}); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestRunMRShareStallSurfaces(t *testing.T) {
	p := makePlan(t, 2, 1)
	m, err := core.NewMRShare(p, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 of 3 batch members ever arrive.
	_, err = RunTrace(m, fixed(1), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 1},
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("err = %v, want stall report", err)
	}
}

func TestRunSubmitErrorPropagates(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	_, err := RunTrace(s, fixed(1), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(1), At: 1}, // duplicate id
	}, Options{})
	if !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("err = %v, want ErrDuplicateJob", err)
	}
}

// The schedulers forget a job once it is done, so after a drained run
// the admission queue, which keeps every job's record, is the layer
// that refuses an ended id.
func TestDrainedSourceRefusesEndedIDs(t *testing.T) {
	s, err := core.NewMultiFile([]*dfs.SegmentPlan{makePlan(t, 4, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := NewLiveSource()
	for i := 1; i <= 10; i++ {
		if _, err := src.SubmitWith(job(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	res, err := Run(s, fixed(1), src, Options{})
	if err != nil || len(res.Jobs) != 10 || s.PendingJobs() != 0 {
		t.Fatalf("Run = %d jobs, %d pending, %v", len(res.Jobs), s.PendingJobs(), err)
	}
	if _, err := src.SubmitWith(job(3), nil); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("an ended id resubmitted to the source: %v, want ErrDuplicateJob", err)
	}
	if err := s.Submit(job(3), res.End); err != nil {
		t.Errorf("the drained scheduler refused an ended id: %v", err)
	}
}

func TestRunEmptyArrivals(t *testing.T) {
	p := makePlan(t, 2, 1)
	s := core.New(p, nil)
	res, err := RunTrace(s, fixed(1), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Jobs) != 0 {
		t.Errorf("empty run = %+v", res)
	}
}

func TestRunMidRoundArrivalJoinsNextRound(t *testing.T) {
	p := makePlan(t, 4, 1) // 4 segments
	s := core.New(p, nil)
	var batchSizes []int
	exec := ExecutorFunc(func(r scheduler.Round) (vclock.Duration, error) {
		batchSizes = append(batchSizes, len(r.Jobs))
		return 10, nil
	})
	// Job 2 arrives at t=5, during job 1's first round (0..10). It
	// must share every round from the second on.
	_, err := RunTrace(s, exec, []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 5},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]int{1, 2, 2, 2, 1}) // seg0 alone; 1..3 shared; seg0 again for job 2...
	// Job 2 needs 4 segments: 1,2,3,0 -> rounds: [1],[2],[2],[2],[1]
	if got := fmt.Sprint(batchSizes); got != want {
		t.Errorf("batch sizes = %v, want %v", got, want)
	}
}
