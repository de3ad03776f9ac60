package runtime_test

import (
	"fmt"
	"sync"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// fixedExec prices every round at 10s.
type fixedExec struct{}

func (fixedExec) ExecRound(scheduler.Round) (vclock.Duration, error) { return 10, nil }

// TestLiveAdmissionJoinsCurrentPass: jobs submitted while a pass is in
// flight are admitted at the next round boundary — the paper's online
// JQM behavior — and every one completes, with its lifecycle tracked
// and a job-submitted trace event recorded.
func TestLiveAdmissionJoinsCurrentPass(t *testing.T) {
	// The serial round loop is the only one; the subtest keeps the name
	// it had beside the pipelined loop that was deleted.
	t.Run("pipeline=false", func(t *testing.T) {
		const lateJobs = 3
		src := runtime.NewLiveSource()
		if _, err := src.SubmitWith(scheduler.JobMeta{Name: "initial", File: "input", Weight: 1, ReduceWeight: 1}, nil); err != nil {
			t.Fatal(err)
		}
		// Submit one more job after each of the first rounds
		// settles, from a separate goroutine, so admission really
		// happens mid-pass.
		roundDone := make(chan struct{}, 64)
		hooks := runtime.Hooks{
			OnRoundDone: func(scheduler.Round, vclock.Time, []scheduler.JobID) {
				select {
				case roundDone <- struct{}{}:
				default:
				}
			},
		}
		go func() {
			for i := 0; i < lateJobs; i++ {
				<-roundDone
				name := fmt.Sprintf("late-%d", i)
				if _, err := src.SubmitWith(scheduler.JobMeta{Name: name, File: "input", Weight: 1, ReduceWeight: 1}, nil); err != nil {
					t.Errorf("late submit %d: %v", i, err)
				}
			}
			src.Close()
		}()

		log := trace.MustNew(4096)
		reg := metrics.NewRegistry()
		sched := core.New(parityPlan(t, 4), log)
		res, err := runtime.Run(sched, fixedExec{}, src, runtime.Options{
			Hooks:   hooks,
			Spans:   log,
			Metrics: metrics.NewRunMetrics(reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Jobs); got != 1+lateJobs {
			t.Fatalf("completed jobs = %d, want %d", got, 1+lateJobs)
		}
		for _, js := range src.Jobs() {
			if js.State != runtime.JobDone {
				t.Errorf("job %d (%s) state = %q, want done", js.ID, js.Name, js.State)
			}
			if js.ID > 1 && js.AdmittedAt <= 0 {
				t.Errorf("late job %d admitted at %v, want mid-pass (> 0)", js.ID, js.AdmittedAt)
			}
		}
		submitted := log.OfKind(trace.JobSubmitted)
		if len(submitted) != 1+lateJobs {
			t.Errorf("job-submitted events = %d, want %d", len(submitted), 1+lateJobs)
		}
	})
}

// TestLiveAdmissionConcurrentSubmitters floods the admission queue
// from many goroutines while the engine runs. Run under -race, this is
// the proof the LiveSource/engine handshake is sound; functionally,
// every submission must complete exactly once.
func TestLiveAdmissionConcurrentSubmitters(t *testing.T) {
	// The serial round loop is the only one; the subtest keeps the name
	// it had beside the pipelined loop that was deleted.
	t.Run("pipeline=false", func(t *testing.T) {
		const submitters, perSubmitter = 4, 3
		src := runtime.NewLiveSource()
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					meta := scheduler.JobMeta{
						Name: fmt.Sprintf("g%d-%d", g, i), File: "input",
						Weight: 1, ReduceWeight: 1,
					}
					if _, err := src.SubmitWith(meta, nil); err != nil {
						t.Errorf("submit g%d-%d: %v", g, i, err)
					}
				}
			}(g)
		}
		go func() {
			wg.Wait()
			src.Close()
		}()
		sched := core.New(parityPlan(t, 3), nil)
		res, err := runtime.Run(sched, fixedExec{}, src, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Jobs); got != submitters*perSubmitter {
			t.Fatalf("completed jobs = %d, want %d", got, submitters*perSubmitter)
		}
		for _, js := range src.Jobs() {
			if js.State != runtime.JobDone {
				t.Errorf("job %d state = %q, want done", js.ID, js.State)
			}
		}
	})
}

// TestLiveSourceEmptyCloseTerminates: closing an untouched queue ends
// the run immediately with zero rounds — the daemon shutdown path when
// nothing was ever submitted.
func TestLiveSourceEmptyCloseTerminates(t *testing.T) {
	src := runtime.NewLiveSource()
	src.Close()
	res, err := runtime.Run(core.New(parityPlan(t, 2), nil), fixedExec{}, src, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", res.Rounds)
	}
}
