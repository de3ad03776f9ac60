package runtime_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// captureLog records every CommitLog callback. The engine invokes the
// log synchronously from the run-loop goroutine (which is the test
// goroutine), so no locking is needed.
type captureLog struct {
	rounds []capturedRound
	done   []scheduler.JobID
}

type capturedRound struct {
	segment  int
	snap     *scheduler.Snapshot
	requeues int
}

func (c *captureLog) RoundCommitted(r scheduler.Round, _ vclock.Time, snap *scheduler.Snapshot, requeues int) {
	c.rounds = append(c.rounds, capturedRound{segment: r.Segment, snap: snap, requeues: requeues})
}

func (c *captureLog) JobDone(id scheduler.JobID, _ vclock.Time) { c.done = append(c.done, id) }

// deployedOver is the scheduler cmd/s3cluster journals and recovers —
// core.NewMultiFile, the one scheme that snapshots — over one file.
func deployedOver(t *testing.T, plan *dfs.SegmentPlan) *core.MultiFile {
	t.Helper()
	m, err := core.NewMultiFile([]*dfs.SegmentPlan{plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEngineCommitLog: the engine fires RoundCommitted once per
// retired round (with a usable scheduler snapshot) and JobDone once per
// completion — the exact stream the write-ahead journal persists.
func TestEngineCommitLog(t *testing.T) {
	sched := deployedOver(t, parityPlan(t, 3))
	log := &captureLog{}
	res, err := runtime.RunTrace(sched, fixedExec{}, []runtime.Arrival{
		{Job: parityMeta(1), At: 0},
		{Job: parityMeta(2), At: 1},
	}, runtime.Options{Commits: log})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.rounds) != res.Rounds {
		t.Fatalf("RoundCommitted fired %d times over %d rounds", len(log.rounds), res.Rounds)
	}
	for i, r := range log.rounds {
		if r.snap == nil {
			t.Fatalf("round %d committed without a snapshot", i)
		}
		if r.requeues != 0 {
			t.Errorf("round %d committed with requeues=%d, want 0", i, r.requeues)
		}
	}
	// The final snapshot shows an empty scheduler.
	last := log.rounds[len(log.rounds)-1].snap
	if n := len(last.Jobs()); n != 0 {
		t.Errorf("final snapshot holds %d jobs, want 0", n)
	}
	if !slices.Equal(log.done, []scheduler.JobID{1, 2}) {
		t.Errorf("JobDone stream = %v, want [1 2]", log.done)
	}
}

// unsnapshottable is the deployed scheduler whose snapshot always fails.
type unsnapshottable struct{ *core.MultiFile }

func (unsnapshottable) StateSnapshot() (scheduler.Snapshot, error) {
	return scheduler.Snapshot{}, errors.New("snapshot refused")
}

// TestEngineFailsOnSnapshotError: a round-commit point whose snapshot
// fails stops a journaled run with that error instead of journaling a
// round recovery could not resume from.
func TestEngineFailsOnSnapshotError(t *testing.T) {
	log := &captureLog{}
	_, err := runtime.RunTrace(unsnapshottable{deployedOver(t, parityPlan(t, 3))}, fixedExec{},
		[]runtime.Arrival{{Job: parityMeta(1), At: 0}}, runtime.Options{Commits: log})
	if err == nil || !strings.Contains(err.Error(), "snapshot refused") {
		t.Fatalf("run with a failing snapshot: err = %v, want the snapshot's error", err)
	}
	if len(log.rounds) != 0 {
		t.Errorf("%d round(s) journaled without a snapshot", len(log.rounds))
	}
}

// TestEngineGracefulStop: closing Options.Stop makes the engine exit
// at the next round boundary with Stopped=true and no error, leaving
// undone jobs pending in the scheduler for a checkpoint to persist.
func TestEngineGracefulStop(t *testing.T) {
	sched := deployedOver(t, parityPlan(t, 4))
	src := runtime.NewLiveSource()
	for i := 0; i < 2; i++ {
		if _, err := src.SubmitWith(parityMeta(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	stopped := false
	hooks := runtime.Hooks{
		OnRoundDone: func(scheduler.Round, vclock.Time, []scheduler.JobID) {
			if !stopped {
				stopped = true
				close(stop)
				src.Close()
			}
		},
	}
	res, err := runtime.Run(sched, fixedExec{}, src, runtime.Options{Stop: stop, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("engine did not report Stopped after stop channel closed")
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (stop fires after the first round)", res.Rounds)
	}
	if sched.PendingJobs() == 0 {
		t.Error("no pending jobs left; stop should have interrupted the pass")
	}
	// The interrupted scheduler is checkpointable right where it stopped.
	if _, err := sched.StateSnapshot(); err != nil {
		t.Errorf("post-stop snapshot: %v", err)
	}
}

// TestEngineRestoredJobs: jobs pre-loaded into the scheduler (journal
// recovery) and adopted into the source as running, as recovery adopts
// them, complete normally and are the run's jobs even though the source
// never delivered them.
func TestEngineRestoredJobs(t *testing.T) {
	sched := deployedOver(t, parityPlan(t, 3))
	src := runtime.NewLiveSource()
	for _, id := range []int{1, 2} {
		if err := sched.Submit(parityMeta(id), 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Adopt(parityMeta(id), runtime.JobRunning, 0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	res, err := runtime.Run(sched, fixedExec{}, src, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.TET(res.Jobs); len(res.Jobs) != 2 || err != nil {
		t.Fatalf("run's jobs = %+v (%v), want both restored jobs done", res.Jobs, err)
	}
	if res.Stopped {
		t.Error("run reported Stopped without a stop channel")
	}
}

// TestEngineInitialRequeues: a checkpoint-carried requeue count eats
// into the budget, so a crash loop cannot reset it by restarting.
func TestEngineInitialRequeues(t *testing.T) {
	sched := deployedOver(t, parityPlan(t, 2))
	exec := &lostExec{}
	_, err := runtime.RunTrace(sched, exec, []runtime.Arrival{{Job: parityMeta(1), At: 0}},
		runtime.Options{MaxRequeues: 5, InitialRequeues: 3})
	if err == nil {
		t.Fatal("permanently lost round succeeded")
	}
	if exec.calls != 3 {
		t.Errorf("executor called %d times, want 3 (budget 5, 3 already spent)", exec.calls)
	}
}

// TestLiveSourceAdopt: adopted jobs surface in the status API with
// their restored state, reserve their ids, and never enter the
// admission queue.
func TestLiveSourceAdopt(t *testing.T) {
	src := runtime.NewLiveSource()
	meta := parityMeta(7)
	if err := src.Adopt(meta, runtime.JobDone, 0, 42, false); err != nil {
		t.Fatal(err)
	}
	if err := src.Adopt(meta, runtime.JobDone, 0, 42, false); err == nil {
		t.Fatal("duplicate adopt succeeded")
	}
	if err := src.Adopt(scheduler.JobMeta{Name: "anon"}, runtime.JobRunning, 0, 0, false); err == nil {
		t.Fatal("adopt without an id succeeded")
	}
	st, ok := src.Status(7)
	if !ok || st.State != runtime.JobDone || st.DoneAt != 42 {
		t.Fatalf("adopted status = %+v ok=%v", st, ok)
	}
	if n := src.Pending(); n != 0 {
		t.Fatalf("adopt queued %d jobs for admission", n)
	}
	// The adopted id is reserved: the next auto-assigned id skips past.
	id, err := src.SubmitWith(parityMeta(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Errorf("next assigned id = %d, want 8", id)
	}
}
