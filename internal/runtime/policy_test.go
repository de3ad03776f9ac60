package runtime_test

import (
	"errors"
	"strings"
	"testing"

	"s3sched/internal/core"
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
