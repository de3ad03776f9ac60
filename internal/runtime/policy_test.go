package runtime_test

import (
	"errors"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// lostExec loses every round, whole or split into stages — the worst
// case for requeue accounting.
type lostExec struct {
	calls int
}

func (l *lostExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	l.calls++
	return 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
}

func (l *lostExec) ExecStages(r scheduler.Round) (vclock.Duration, vclock.Duration, error) {
	l.calls++
	return 0, 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
}

// TestPoliciesShareRequeueBound: rounds run whole (ExecRound) and split
// into stages (ExecStages) go through the same engine-owned requeue
// semantics — identical attempt counts and an identical giving-up error.
func TestPoliciesShareRequeueBound(t *testing.T) {
	errs := make(map[bool]string)
	for _, split := range []bool{false, true} {
		sched := core.New(parityPlan(t, 2), nil)
		exec := &lostExec{}
		var ex runtime.Executor = exec
		if !split {
			ex = runtime.ExecutorFunc(exec.ExecRound)
		}
		_, err := runtime.RunTrace(sched, ex, []runtime.Arrival{{Job: parityMeta(1), At: 0}},
			runtime.Options{MaxRequeues: 3})
		if err == nil {
			t.Fatalf("split=%v: permanently lost round succeeded", split)
		}
		if !strings.Contains(err.Error(), "giving up") {
			t.Errorf("split=%v: error %q does not mention giving up", split, err)
		}
		if exec.calls != 4 {
			t.Errorf("split=%v: executor called %d times, want 4 (1 + 3 requeues)", split, exec.calls)
		}
		errs[split] = err.Error()
	}
	if errs[false] != errs[true] {
		t.Errorf("whole and split rounds give different requeue errors:\nwhole: %s\nsplit: %s",
			errs[false], errs[true])
	}
}

// failDrainExec fails job 2's own code on its first round and reports
// it through the FailureReporter protocol, whole or split into stages.
type failDrainExec struct {
	reported bool
	failures []scheduler.JobFailure
	stats    metrics.FaultStats
}

func (f *failDrainExec) fail(r scheduler.Round) {
	for _, j := range r.Jobs {
		if j.ID == 2 && !f.reported {
			f.reported = true
			f.failures = append(f.failures, scheduler.JobFailure{ID: j.ID, Err: errors.New("mapper exploded")})
			f.stats.FailedAttempts++
		}
	}
}

func (f *failDrainExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	f.fail(r)
	return 10, nil
}

func (f *failDrainExec) ExecStages(r scheduler.Round) (vclock.Duration, vclock.Duration, error) {
	f.fail(r)
	return 6, 4, nil
}

func (f *failDrainExec) TakeJobFailures() []scheduler.JobFailure {
	out := f.failures
	f.failures = nil
	return out
}

func (f *failDrainExec) FaultStats() metrics.FaultStats { return f.stats }

// failDrainer is failDrainExec without ExecStages: its rounds run whole.
type failDrainer interface {
	runtime.Executor
	runtime.FailureReporter
	runtime.FaultStatsSource
}

// TestPoliciesShareFailureDrain: per-job failures drain identically
// whether rounds run whole or split into stages — same failed set, no
// incomplete survivors, same folded fault stats.
func TestPoliciesShareFailureDrain(t *testing.T) {
	type outcome struct {
		failed   []scheduler.JobID // the jobs that neither completed nor remain
		rounds   int
		failJobs int
		attempts int
	}
	outcomes := make(map[bool]outcome)
	for _, split := range []bool{false, true} {
		sched := core.New(parityPlan(t, 2), nil)
		var exec failDrainer = &failDrainExec{}
		if !split {
			exec = struct{ failDrainer }{exec}
		}
		res, err := runtime.RunTrace(sched, exec, []runtime.Arrival{
			{Job: parityMeta(1), At: 0},
			{Job: parityMeta(2), At: 0},
		}, runtime.Options{})
		if err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
		if n := len(res.Metrics.Incomplete()); n != 0 {
			t.Fatalf("split=%v: %d incomplete jobs, want 0", split, n)
		}
		fs := res.Metrics.FaultStats()
		var failed []scheduler.JobID
		for _, id := range []scheduler.JobID{1, 2} {
			if _, err := res.Metrics.ResponseTime(id); err != nil {
				failed = append(failed, id)
			}
		}
		outcomes[split] = outcome{
			failed:   failed,
			rounds:   res.Rounds,
			failJobs: fs.FailedJobs,
			attempts: fs.FailedAttempts,
		}
	}
	w, s := outcomes[false], outcomes[true]
	if len(w.failed) != 1 || w.failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", w.failed)
	}
	if len(s.failed) != 1 || s.failed[0] != 2 || w.rounds != s.rounds ||
		w.failJobs != s.failJobs || w.attempts != s.attempts {
		t.Errorf("drain outcomes diverge: whole %+v, split %+v", w, s)
	}
}
