package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

func meta(id scheduler.JobID, file string) scheduler.JobMeta {
	return scheduler.JobMeta{ID: id, Name: fmt.Sprintf("job-%d", id), File: file}
}

// countingMat records materialization calls and returns a fixed delay.
type countingMat struct {
	calls map[scheduler.JobID]int
	at    map[scheduler.JobID]vclock.Time
	delay vclock.Duration
	fail  map[scheduler.JobID]bool
}

func newCountingMat(delay vclock.Duration) *countingMat {
	return &countingMat{
		calls: make(map[scheduler.JobID]int),
		at:    make(map[scheduler.JobID]vclock.Time),
		delay: delay,
		fail:  make(map[scheduler.JobID]bool),
	}
}

func (m *countingMat) mat(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
	m.calls[id]++
	m.at[id] = at
	if m.fail[id] {
		return 0, fmt.Errorf("injected materialization failure for %d", id)
	}
	return m.delay, nil
}

// deliver pops the arrivals due at now and admits them, as the engine
// does.
func deliver(t *testing.T, src *runtime.LiveSource, now vclock.Time) []runtime.Arrival {
	t.Helper()
	got := src.Pop(now)
	for _, a := range got {
		if err := src.JobAdmitted(a.Job.ID, a.At); err != nil {
			t.Error(err)
		}
	}
	return got
}

// finish has the engine finish a running job.
func finish(t *testing.T, src *runtime.LiveSource, id scheduler.JobID, at vclock.Time) {
	t.Helper()
	if _, err := src.JobFinished(id, at); err != nil {
		t.Error(err)
	}
}

// submitAll submits stages in order, as an s3compare cell does before
// its run, and returns the first refusal.
func submitAll(src *runtime.LiveSource, stages ...runtime.Stage) error {
	for _, st := range stages {
		if _, err := src.SubmitStage(runtime.Arrival{Job: st.Job, At: st.At}, st.DependsOn, nil); err != nil {
			return err
		}
	}
	return nil
}

func TestLiveDAGValidation(t *testing.T) {
	cases := []struct {
		name   string
		stages []runtime.Stage
		mat    runtime.Materializer
		want   string
	}{
		{"negative id", []runtime.Stage{{Job: meta(-1, "f")}}, nil, "negative job id"},
		{"duplicate id", []runtime.Stage{{Job: meta(1, "f")}, {Job: meta(1, "f")}}, nil, "duplicate stage id"},
		{"unknown dep", []runtime.Stage{{Job: meta(1, "f"), DependsOn: []scheduler.JobID{9}}},
			func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil },
			"depends on unknown job 9"},
		{"missing materializer", []runtime.Stage{{Job: meta(1, "f")}, {Job: meta(2, "g"), DependsOn: []scheduler.JobID{1}}}, nil, "no materializer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := submitAll(runtime.NewLiveSourceOn(nil, tc.mat), tc.stages...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("submitting %+v: %v, want an error mentioning %q", tc.stages, err, tc.want)
			}
		})
	}
}

// A released stage is queued at the later of its own At and its
// producer's finish plus the materialization delay.
func TestLiveDAGReleasesAtLowerBound(t *testing.T) {
	m := newCountingMat(vclock.Duration(2))
	src := runtime.NewLiveSourceOn(vclock.NewVirtual(), m.mat)
	if err := submitAll(src,
		runtime.Stage{Job: meta(1, "corpus"), At: 0},
		runtime.Stage{Job: meta(2, "job-1.out"), At: 1, DependsOn: []scheduler.JobID{1}},
		runtime.Stage{Job: meta(3, "job-1.out"), At: 10, DependsOn: []scheduler.JobID{1}},
	); err != nil {
		t.Fatal(err)
	}
	src.Close()
	if got := src.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (the root: a held stage is not queued)", got)
	}
	if roots := deliver(t, src, 0); len(roots) != 1 || roots[0].Job.ID != 1 {
		t.Fatalf("Pop(0) = %+v, want root job 1", roots)
	}
	if _, ok := src.Peek(); ok || src.Wait() {
		t.Fatal("a closed source reports an arrival while the consumers are held")
	}
	finish(t, src, 1, vclock.Time(5))
	if m.calls[1] != 1 {
		t.Fatalf("materializer called %d times for job 1, want 1", m.calls[1])
	}
	if at, ok := src.Peek(); !ok || at != vclock.Time(7) {
		t.Fatalf("Peek() = %v, %v; want release at finish+delay = 7", at, ok)
	}
	if got := src.Pop(vclock.Time(6)); len(got) != 0 {
		t.Fatalf("Pop(6) delivered %+v before the materialization settled", got)
	}
	if got := src.Pop(vclock.Time(9)); len(got) != 1 || got[0].Job.ID != 2 || got[0].At != vclock.Time(7) {
		t.Fatalf("Pop(9) = %+v, want job 2 at 7", got)
	}
	if got := src.Pop(vclock.Time(12)); len(got) != 1 || got[0].Job.ID != 3 || got[0].At != vclock.Time(10) {
		t.Fatalf("Pop(12) = %+v, want job 3 at its own 10", got)
	}
	// A duplicate finish is refused and must not re-materialize.
	if _, err := src.JobFinished(1, vclock.Time(9)); err == nil || m.calls[1] != 1 || src.Err() != nil {
		t.Fatalf("duplicate JobFinished: %d materializations, Err %v", m.calls[1], src.Err())
	}
}

// A stage whose producer never finishes (an abnormal run) stays held,
// and Err reports it.
func TestLiveDAGErrNeverReady(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)
	if err := submitAll(src, runtime.Stage{Job: meta(1, "corpus")}, runtime.Stage{Job: meta(2, "job-1.out"), DependsOn: []scheduler.JobID{1}}); err != nil {
		t.Fatal(err)
	}
	src.Close()
	deliver(t, src, 0)
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "1 DAG stages never became ready") {
		t.Fatalf("Err() = %v, want the held stage reported", err)
	}
}

// A diamond's consumer is held until both of its producers finish, and
// is then released at the later finish; each producer is materialized
// once.
func TestCoordinatorDiamondWaitsForAllDeps(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(vclock.NewVirtual(), m.mat)
	if err := submitAll(src,
		runtime.Stage{Job: meta(1, "corpus")},
		runtime.Stage{Job: meta(2, "corpus")},
		runtime.Stage{Job: meta(3, "job-1.out"), DependsOn: []scheduler.JobID{1, 2}},
	); err != nil {
		t.Fatal(err)
	}
	src.Close()
	deliver(t, src, 0)
	finish(t, src, 1, vclock.Time(3))
	if got := src.Pop(vclock.Time(10)); len(got) != 0 {
		t.Fatalf("consumer released after one of two deps: %+v", got)
	}
	finish(t, src, 2, vclock.Time(4))
	got := src.Pop(vclock.Time(10))
	if len(got) != 1 || got[0].Job.ID != 3 || got[0].At != vclock.Time(4) {
		t.Fatalf("Pop = %+v, want job 3 at 4 (last dep's finish)", got)
	}
	if m.calls[1] != 1 || m.calls[2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer", m.calls)
	}
}

// A producer whose output cannot become a file takes its whole cone
// with it, transitively, and none of it is materialized or delivered;
// the stages are given their ids up front, as a trace file gives them.
func TestCoordinatorMaterializeErrorCascades(t *testing.T) {
	m := newCountingMat(0)
	m.fail[1] = true
	src := runtime.NewLiveSourceOn(nil, m.mat)
	if err := submitAll(src,
		runtime.Stage{Job: meta(1, "corpus")},
		runtime.Stage{Job: meta(2, "job-1.out"), DependsOn: []scheduler.JobID{1}},
		runtime.Stage{Job: meta(3, "job-2.out"), DependsOn: []scheduler.JobID{2}},
	); err != nil {
		t.Fatal(err)
	}
	src.Close()
	deliver(t, src, 0)
	finish(t, src, 1, vclock.Time(2))
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "materializing stage 1") {
		t.Fatalf("Err() = %v, want materialization failure", err)
	}
	mustState(t, src, 2, runtime.JobFailed)
	mustState(t, src, 3, runtime.JobFailed)
	if m.calls[2] != 0 || src.Wait() {
		t.Fatalf("the cone ran on: %d materializations of stage 2, queued %v", m.calls[2], src.Wait())
	}
}

func mustState(t *testing.T, src *runtime.LiveSource, id scheduler.JobID, want runtime.JobState) {
	t.Helper()
	st, ok := src.Status(id)
	if !ok {
		t.Fatalf("job %d has no status", id)
	}
	if st.State != want {
		t.Fatalf("job %d state = %q, want %q", id, st.State, want)
	}
}

func TestLiveDAGHoldAndRelease(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	pid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "wc", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatalf("submit producer: %v", err)
	}
	mustState(t, src, pid, runtime.JobQueued)
	if got := deliver(t, src, 0); len(got) != 1 || got[0].Job.ID != pid {
		t.Fatalf("Pop = %+v, want producer %d", got, pid)
	}

	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "topk", File: "job-1.out"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("submit consumer: %v", err)
	}
	mustState(t, src, cid, runtime.JobWaiting)
	if st, _ := src.Status(cid); len(st.DependsOn) != 1 || st.DependsOn[0] != pid {
		t.Fatalf("consumer DependsOn = %v, want [%d]", st.DependsOn, pid)
	}

	finish(t, src, pid, vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("materializer called %d times, want 1", m.calls[pid])
	}
	if m.at[pid] != vclock.Time(9) {
		t.Fatalf("materialized at %v, want 9", m.at[pid])
	}
	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, cid, runtime.JobQueued)

	got := src.Pop(vclock.Time(10))
	if len(got) != 1 || got[0].Job.ID != cid {
		t.Fatalf("Pop after release = %+v, want consumer %d", got, cid)
	}
	if m.calls[pid] != 1 {
		t.Fatalf("Pop re-materialized: %d calls", m.calls[pid])
	}
}

// A producer that finishes before any consumer exists must not
// materialize eagerly; the materialization is deferred to the first Pop
// after a consumer shows up, which runs before that consumer's arrival
// can reach the scheduler.
func TestLiveDAGLateConsumerDefersMaterialization(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	pid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "wc", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, src, 0)
	finish(t, src, pid, vclock.Time(5))
	if m.calls[pid] != 0 {
		t.Fatalf("producer with no consumers was materialized (%d calls)", m.calls[pid])
	}

	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "topk", File: "job-1.out"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("late consumer refused: %v", err)
	}
	mustState(t, src, cid, runtime.JobQueued)
	if m.calls[pid] != 0 {
		t.Fatal("materialized at submit time; must wait for Pop")
	}

	got := src.Pop(vclock.Time(8))
	if m.calls[pid] != 1 {
		t.Fatalf("Pop drained needMat %d times, want 1", m.calls[pid])
	}
	if len(got) != 1 || got[0].Job.ID != cid {
		t.Fatalf("Pop = %+v, want consumer %d", got, cid)
	}

	// A second late consumer of the same producer must not re-materialize.
	cid2, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "topk2", File: "job-1.out"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Pop(vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("second consumer re-materialized (%d calls)", m.calls[pid])
	}
	mustState(t, src, cid2, runtime.JobQueued)
}

func TestLiveDAGRefusesBadDependencies(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	if _, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c"}}, []scheduler.JobID{7}, nil); err == nil {
		t.Fatal("accepted a dependency that was never submitted")
	}

	// A producer recovery adopted failed.
	failed := scheduler.JobMeta{ID: 1, Name: "f", File: "corpus"}
	if err := src.Adopt(failed, runtime.JobFailed, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c"}}, []scheduler.JobID{failed.ID}, nil); !errors.Is(err, runtime.ErrDoomed) {
		t.Fatalf("dependency on a failed job: %v, want runtime.ErrDoomed", err)
	}
	deliver(t, src, 0)
	if m.calls[failed.ID] != 0 {
		t.Fatal("failed producer was materialized")
	}
}

// A producer whose output cannot become a file fails its dependents and
// theirs, transitively, none of them materialized or delivered; the
// producer itself is done, and Err names the failure.
func TestLiveDAGMaterializeErrorCascades(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	pid, _ := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p", File: "corpus"}}, nil, nil)
	m.fail[pid] = true
	c1, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c1"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c2"}}, []scheduler.JobID{c1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	deliver(t, src, 0)
	finish(t, src, pid, vclock.Time(4))

	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, c1, runtime.JobFailed)
	mustState(t, src, c2, runtime.JobFailed)
	if got := src.Pop(vclock.Time(99)); len(got) != 0 || src.Wait() || m.calls[c1] != 0 {
		t.Fatalf("cascade-failed stages ran on: delivered %+v, %d materializations of %d", got, m.calls[c1], c1)
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "materializing stage 1") {
		t.Fatalf("Err() = %v, want the materialization failure", err)
	}
}

func TestLiveDAGMultiDepReleasesAfterLast(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	p1, _ := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p1", File: "a"}}, nil, nil)
	p2, _ := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p2", File: "b"}}, nil, nil)
	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "join"}}, []scheduler.JobID{p1, p2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, src, 0)
	finish(t, src, p1, 3)
	mustState(t, src, cid, runtime.JobWaiting)
	finish(t, src, p2, 5)
	mustState(t, src, cid, runtime.JobQueued)
	if at, ok := src.Peek(); !ok || at != 5 {
		t.Fatalf("Peek() = %v, %v; want the join at its last producer's finish, 5", at, ok)
	}
	if m.calls[p1] != 1 || m.calls[p2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer", m.calls)
	}
}

func TestLiveDAGAdoptPaths(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	// Recovered done + already-materialized producer: a new consumer is
	// queued immediately and Pop must not re-materialize. Adopted ids sit
	// high so auto-assigned consumer ids cannot collide.
	doneMeta := scheduler.JobMeta{ID: 100, Name: "done", File: "corpus"}
	if err := src.Adopt(doneMeta, runtime.JobDone, 0, 2, true); err != nil {
		t.Fatal(err)
	}
	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c"}}, []scheduler.JobID{100}, nil)
	if err != nil {
		t.Fatalf("consumer of recovered producer refused: %v", err)
	}
	mustState(t, src, cid, runtime.JobQueued)
	src.Pop(5)
	if m.calls[100] != 0 {
		t.Fatal("re-materialized a producer recovery already rebuilt")
	}

	// Recovered done but unmaterialized producer: resubmitting the
	// consumer under its old id, as recovery does, queues it and the next
	// Pop materializes.
	done2 := scheduler.JobMeta{ID: 200, Name: "done2", File: "corpus"}
	if err := src.Adopt(done2, runtime.JobDone, 0, 3, false); err != nil {
		t.Fatal(err)
	}
	heldMeta := scheduler.JobMeta{ID: 210, Name: "held", File: "job-200.out"}
	if _, err := src.SubmitStage(runtime.Arrival{Job: heldMeta}, []scheduler.JobID{200}, nil); err != nil {
		t.Fatal(err)
	}
	mustState(t, src, 210, runtime.JobQueued)
	src.Pop(6)
	if m.calls[200] != 1 {
		t.Fatalf("Pop materialized recovered producer %d times, want 1", m.calls[200])
	}

	// Recovered failed producer: its consumer is refused.
	failedMeta := scheduler.JobMeta{ID: 300, Name: "bad", File: "corpus"}
	if err := src.Adopt(failedMeta, runtime.JobFailed, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	orphan := scheduler.JobMeta{ID: 310, Name: "orphan", File: "job-300.out"}
	if _, err := src.SubmitStage(runtime.Arrival{Job: orphan}, []scheduler.JobID{300}, nil); !errors.Is(err, runtime.ErrDoomed) {
		t.Fatalf("consumer of a failed producer: %v, want runtime.ErrDoomed", err)
	}

	// Recovered pending producer: the resubmitted consumer waits, then a
	// live finish releases it.
	pendMeta := scheduler.JobMeta{ID: 400, Name: "pend", File: "corpus"}
	if err := src.Adopt(pendMeta, runtime.JobRunning, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	waiter := scheduler.JobMeta{ID: 410, Name: "waiter", File: "job-400.out"}
	if _, err := src.SubmitStage(runtime.Arrival{Job: waiter}, []scheduler.JobID{400}, nil); err != nil {
		t.Fatal(err)
	}
	mustState(t, src, 410, runtime.JobWaiting)
	finish(t, src, 400, vclock.Time(8))
	mustState(t, src, 410, runtime.JobQueued)
	if m.calls[400] != 1 {
		t.Fatalf("materializer called %d times for resumed producer, want 1", m.calls[400])
	}
}

// Concurrent submissions racing a producer's finish must neither lose a
// release nor double-materialize (run under -race in CI).
func TestLiveDAGConcurrentSubmitAndFinish(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	pid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, src, 0)

	const consumers = 16
	ids := make([]scheduler.JobID, consumers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			id, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "c"}}, []scheduler.JobID{pid}, nil)
			if err != nil {
				t.Errorf("consumer %d: %v", i, err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		finish(t, src, pid, vclock.Time(3))
	}()
	close(start)
	wg.Wait()

	// Every consumer ends queued regardless of which side of the finish
	// its submission landed on; drain any deferred materializations.
	src.Pop(vclock.Time(4))
	for _, id := range ids {
		mustState(t, src, id, runtime.JobQueued)
	}
	if m.calls[pid] != 1 {
		t.Fatalf("materializer called %d times under contention, want 1", m.calls[pid])
	}
}

// A late consumer must never reach the scheduler before its producer's
// file exists: when the deferred materialization fails, the consumer
// and its cone fail as on the eager path, nothing of theirs is
// delivered, and an unrelated queued job still pops.
func TestLiveDAGDeferredMaterializeErrorFailsConsumer(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	pid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "wc", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, src, 0)
	finish(t, src, pid, vclock.Time(5))

	m.fail[pid] = true
	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "topk", File: "job-1.out"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("late consumer refused: %v", err)
	}
	downstream, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "top-of-topk"}}, []scheduler.JobID{cid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "wc2", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	got := src.Pop(vclock.Time(8))
	if len(got) != 1 || got[0].Job.ID != bystander {
		t.Fatalf("Pop = %+v, want the bystander %d alone", got, bystander)
	}
	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, cid, runtime.JobFailed)
	mustState(t, src, downstream, runtime.JobFailed)
	if st, _ := src.Status(cid); st.DoneAt != vclock.Time(8) {
		t.Fatalf("failed consumer stamped %v, want the Pop's 8", st.DoneAt)
	}

	// The answer is remembered: a later reader is refused at the door and
	// the materializer is not asked again.
	if _, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "topk2"}}, []scheduler.JobID{pid}, nil); !errors.Is(err, runtime.ErrDoomed) {
		t.Fatalf("second reader of an output that cannot become a file: %v, want runtime.ErrDoomed", err)
	}
	src.Pop(vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("materializer asked %d times, want 1", m.calls[pid])
	}
}

// A stage held on one producer while another of its producers already
// finished, unread: the finished one's output is materialized too before
// the stage is delivered — by the Pop that follows its release.
func TestLiveDAGHeldStageWithFinishedUnreadProducer(t *testing.T) {
	m := newCountingMat(0)
	src := runtime.NewLiveSourceOn(nil, m.mat)

	p1, _ := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p1", File: "corpus"}}, nil, nil)
	p2, _ := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "p2", File: "corpus"}}, nil, nil)
	deliver(t, src, 0)
	finish(t, src, p1, vclock.Time(2))
	cid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "join", File: "job-1.out"}}, []scheduler.JobID{p1, p2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, src, cid, runtime.JobWaiting)
	finish(t, src, p2, vclock.Time(4))
	mustState(t, src, cid, runtime.JobWaiting) // p1's output is no file yet
	if got := src.Pop(vclock.Time(5)); len(got) != 1 || got[0].Job.ID != cid {
		t.Fatalf("Pop = %+v, want the join %d", got, cid)
	}
	if m.calls[p1] != 1 || m.calls[p2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer before the join is delivered", m.calls)
	}
}

// The materializer runs with the source's lock released: a submission
// and a status read made while it runs return before it does, and a
// reader submitted meanwhile is held on the producer and released with
// the reader that was there first.
func TestLiveDAGSubmitDuringMaterialization(t *testing.T) {
	materializing, proceed := make(chan struct{}), make(chan struct{})
	src := runtime.NewLiveSourceOn(nil, func(scheduler.JobID, vclock.Time) (vclock.Duration, error) {
		close(materializing)
		<-proceed
		return 0, nil
	})
	pid, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "wc", File: "corpus"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	early, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "early"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, src, 0)
	finished := make(chan error, 1)
	go func() {
		_, err := src.JobFinished(pid, 3)
		finished <- err
	}()
	<-materializing

	submitted := make(chan scheduler.JobID, 1)
	go func() {
		id, err := src.SubmitStage(runtime.Arrival{Job: scheduler.JobMeta{Name: "meanwhile"}}, []scheduler.JobID{pid}, nil)
		if err != nil {
			t.Error(err)
		}
		submitted <- id
	}()
	var meanwhile scheduler.JobID
	select {
	case meanwhile = <-submitted:
	case <-time.After(10 * time.Second):
		close(proceed)
		t.Fatal("a submission waited on the materialization")
	}
	mustState(t, src, meanwhile, runtime.JobWaiting)
	mustState(t, src, early, runtime.JobWaiting)
	close(proceed)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if got := src.Pop(3); len(got) != 2 || got[0].Job.ID != early || got[1].Job.ID != meanwhile {
		t.Fatalf("Pop = %+v, want %d and %d", got, early, meanwhile)
	}
}
