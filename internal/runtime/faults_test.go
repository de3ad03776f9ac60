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
// read, and a second nobody reads. A requeue must reach p's queue
// through it.
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

// flakyExec loses the first `lose` rounds, then runs every round in 10s;
// it counts each loss as a failed attempt.
type flakyExec struct {
	lose  int
	calls int
}

func (f *flakyExec) FaultStats() metrics.FaultStats {
	return metrics.FaultStats{FailedAttempts: min(f.calls, f.lose)}
}

func (f *flakyExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	f.calls++
	if f.calls <= f.lose {
		return 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
	}
	return 10, nil
}

// TestRequeueRecoversLostRound: a lost round is requeued and the run
// still completes every job; the lost time, the requeue count and the
// executor's own fault counters are accounted.
func TestRequeueRecoversLostRound(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	s := deployed(t, p)
	exec := &flakyExec{lose: 2}
	res, err := RunTrace(s, exec, []Arrival{{Job: job(1), At: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("successful rounds = %d, want 2", res.Rounds)
	}
	fs := res.Faults
	if fs.RequeuedRounds != 2 || fs.RequeuedSubJobs != 2 || fs.FailedAttempts != 2 {
		t.Errorf("fault stats = %+v, want 2 rounds / 2 sub-jobs requeued and the executor's 2 failed attempts", fs)
	}
	// 2 lost rounds x 5s + 2 good rounds x 10s.
	rt, err := metrics.ART(res.Jobs) // the one job's response time
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
