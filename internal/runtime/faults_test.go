package runtime

import (
	"errors"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// deployed builds the scheduler cmd/s3cluster deploys, the way drive()
// does: core.NewMultiFile over two files — p, the one the test's jobs
// read, and a second nobody reads. Requeue and abort must reach p's
// queue through it.
func deployed(t *testing.T, p *dfs.SegmentPlan) *core.MultiFile {
	t.Helper()
	idle, err := dfs.MustStore(1, 1).AddMetaFile("idle", 2, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	idlePlan, err := dfs.PlanSegments(idle, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMultiFile([]*dfs.SegmentPlan{p, idlePlan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// flakyExec loses the first `lose` rounds, then runs every round in 10s.
type flakyExec struct {
	lose  int
	calls int
}

func (f *flakyExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	f.calls++
	if f.calls <= f.lose {
		return 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
	}
	return 10, nil
}

// TestRequeueRecoversLostRound: a lost round is requeued and the run
// still completes every job; the lost time and requeue count are
// accounted.
func TestRequeueRecoversLostRound(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	s := deployed(t, p)
	exec := &flakyExec{lose: 2}
	res, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics.FaultStats().FailedJobs; n != 0 {
		t.Fatalf("failed jobs = %d, want 0", n)
	}
	if res.Rounds != 2 {
		t.Errorf("successful rounds = %d, want 2", res.Rounds)
	}
	fs := res.Metrics.FaultStats()
	if fs.RequeuedRounds != 2 || fs.RequeuedSubJobs != 2 {
		t.Errorf("requeue stats = %+v, want 2 rounds / 2 sub-jobs", fs)
	}
	// 2 lost rounds x 5s + 2 good rounds x 10s.
	rt, err := res.Metrics.ResponseTime(1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Seconds() != 30 {
		t.Errorf("response time = %v, want 30s (lost-round time counts)", rt)
	}
}

// TestRequeueBoundGivesUp: a round lost more than MaxRequeues times in
// a row aborts the run instead of looping forever.
func TestRequeueBoundGivesUp(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := deployed(t, p)
	exec := &flakyExec{lose: 1 << 30}
	_, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{MaxRequeues: 3})
	if err == nil {
		t.Fatal("run with a permanently lost round succeeded")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error %q does not mention giving up", err)
	}
	if exec.calls != 4 {
		t.Errorf("executor called %d times, want 4 (1 + 3 requeues)", exec.calls)
	}
}

// noRecover hides the Recoverable methods of the wrapped scheduler.
type noRecover struct{ scheduler.Scheduler }

// TestLostRoundNeedsRecoverable: a scheduler without Recoverable gets a
// clear error instead of a silent requeue.
func TestLostRoundNeedsRecoverable(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := &noRecover{deployed(t, p)}
	exec := &flakyExec{lose: 1}
	_, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "cannot requeue") {
		t.Fatalf("error = %v, want cannot-requeue", err)
	}
}

// failingJobsExec runs rounds normally but reports the given jobs as
// failed after their first round, as an executor isolating a job's own
// mapper errors would.
type failingJobsExec struct {
	bad      map[scheduler.JobID]bool
	failures []scheduler.JobFailure
	reported map[scheduler.JobID]bool
	stats    metrics.FaultStats
}

func (f *failingJobsExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	for _, j := range r.Jobs {
		if f.bad[j.ID] && !f.reported[j.ID] {
			f.reported[j.ID] = true
			f.failures = append(f.failures, scheduler.JobFailure{ID: j.ID, Err: errors.New("mapper exploded")})
			f.stats.FailedAttempts++
		}
	}
	return 10, nil
}

func (f *failingJobsExec) TakeJobFailures() []scheduler.JobFailure {
	out := f.failures
	f.failures = nil
	return out
}

func (f *failingJobsExec) FaultStats() metrics.FaultStats { return f.stats }

// TestJobFailureIsIsolatedAndAborted: a failed job is marked failed,
// aborted out of future rounds, and the surviving job completes.
func TestJobFailureIsIsolatedAndAborted(t *testing.T) {
	p := makePlan(t, 8, 2) // 4 segments
	s := deployed(t, p)
	exec := &failingJobsExec{
		bad:      map[scheduler.JobID]bool{2: true},
		reported: make(map[scheduler.JobID]bool),
	}
	res, err := RunTrace(s, exec, []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Metrics.ResponseTime(2); err == nil || res.Metrics.FaultStats().FailedJobs != 1 {
		t.Fatalf("job 2 completed: %v; %d jobs failed; want job 2 alone failed", err == nil, res.Metrics.FaultStats().FailedJobs)
	}
	if n := len(res.Metrics.Incomplete()); n != 0 {
		t.Fatalf("incomplete jobs = %d, want 0 (job 1 must finish)", n)
	}
	if _, err := res.Metrics.ResponseTime(1); err != nil {
		t.Errorf("job 1 has no response time: %v", err)
	}
	// Job 2 shared only the first round before aborting: 4 rounds for
	// job 1, no extra rounds for job 2's remaining segments.
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4 (aborted job schedules no more scans)", res.Rounds)
	}
	fs := res.Metrics.FaultStats()
	if fs.FailedJobs != 1 {
		t.Errorf("FaultStats.FailedJobs = %d, want 1", fs.FailedJobs)
	}
	if fs.FailedAttempts != 1 {
		t.Errorf("FaultStats.FailedAttempts = %d, want 1 (executor stats folded in)", fs.FailedAttempts)
	}
}
