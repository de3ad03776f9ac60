package pipeline

import (
	"errors"
	"sync"
	"testing"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

func newTestDAG(m *countingMat) (*LiveDAG, *runtime.LiveSource) {
	src := runtime.NewLiveSource()
	return NewLiveDAG(src, m.mat), src
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
	d, src := newTestDAG(m)

	pid, err := d.SubmitStage(scheduler.JobMeta{Name: "wc", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatalf("submit producer: %v", err)
	}
	mustState(t, src, pid, runtime.JobQueued)
	if got := d.Pop(0); len(got) != 1 || got[0].Job.ID != pid {
		t.Fatalf("Pop = %+v, want producer %d", got, pid)
	}

	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "topk", File: "job-1.out"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("submit consumer: %v", err)
	}
	mustState(t, src, cid, runtime.JobWaiting)
	if st, _ := src.Status(cid); len(st.DependsOn) != 1 || st.DependsOn[0] != pid {
		t.Fatalf("consumer DependsOn = %v, want [%d]", st.DependsOn, pid)
	}

	d.JobAdmitted(pid, 1)
	d.JobFinished(pid, vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("materializer called %d times, want 1", m.calls[pid])
	}
	if m.at[pid] != vclock.Time(9) {
		t.Fatalf("materialized at %v, want 9", m.at[pid])
	}
	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, cid, runtime.JobQueued)

	got := d.Pop(vclock.Time(10))
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
	d, src := newTestDAG(m)

	pid, err := d.SubmitStage(scheduler.JobMeta{Name: "wc", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, vclock.Time(5))
	if m.calls[pid] != 0 {
		t.Fatalf("producer with no consumers was materialized (%d calls)", m.calls[pid])
	}

	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "topk", File: "job-1.out"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("late consumer refused: %v", err)
	}
	mustState(t, src, cid, runtime.JobQueued)
	if m.calls[pid] != 0 {
		t.Fatal("materialized at submit time; must wait for Pop")
	}

	got := d.Pop(vclock.Time(8))
	if m.calls[pid] != 1 {
		t.Fatalf("Pop drained needMat %d times, want 1", m.calls[pid])
	}
	if len(got) != 1 || got[0].Job.ID != cid {
		t.Fatalf("Pop = %+v, want consumer %d", got, cid)
	}

	// A second late consumer of the same producer must not re-materialize.
	cid2, err := d.SubmitStage(scheduler.JobMeta{Name: "topk2", File: "job-1.out"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("second consumer re-materialized (%d calls)", m.calls[pid])
	}
	mustState(t, src, cid2, runtime.JobQueued)
}

func TestLiveDAGRefusesBadDependencies(t *testing.T) {
	m := newCountingMat(0)
	d, _ := newTestDAG(m)

	if _, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{7}, nil); err == nil {
		t.Fatal("accepted a dependency that was never submitted")
	}

	// A producer recovery adopted failed.
	failed := scheduler.JobMeta{ID: 1, Name: "f", File: "corpus"}
	if err := d.Adopt(failed, runtime.JobFailed, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{failed.ID}, nil); !errors.Is(err, ErrDoomed) {
		t.Fatalf("dependency on a failed job: %v, want ErrDoomed", err)
	}
	d.Pop(0)
	if m.calls[failed.ID] != 0 {
		t.Fatal("failed producer was materialized")
	}
}

// A producer whose output cannot become a file fails its dependents and
// theirs, transitively; the producer itself is done.
func TestLiveDAGMaterializeErrorCascades(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	pid, _ := d.SubmitStage(scheduler.JobMeta{Name: "p", File: "corpus"}, nil, nil)
	m.fail[pid] = true
	c1, err := d.SubmitStage(scheduler.JobMeta{Name: "c1"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.SubmitStage(scheduler.JobMeta{Name: "c2"}, []scheduler.JobID{c1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, vclock.Time(4))

	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, c1, runtime.JobFailed)
	mustState(t, src, c2, runtime.JobFailed)
	if got := d.Pop(vclock.Time(99)); len(got) != 0 {
		t.Fatalf("cascade-failed stages still delivered: %+v", got)
	}
}

func TestLiveDAGMultiDepReleasesAfterLast(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	p1, _ := d.SubmitStage(scheduler.JobMeta{Name: "p1", File: "a"}, nil, nil)
	p2, _ := d.SubmitStage(scheduler.JobMeta{Name: "p2", File: "b"}, nil, nil)
	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "join"}, []scheduler.JobID{p1, p2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(p1, 3)
	mustState(t, src, cid, runtime.JobWaiting)
	d.JobFinished(p2, 5)
	mustState(t, src, cid, runtime.JobQueued)
	if m.calls[p1] != 1 || m.calls[p2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer", m.calls)
	}
}

func TestLiveDAGAdoptPaths(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	// Recovered done + already-materialized producer: a new consumer is
	// queued immediately and Pop must not re-materialize. Adopted ids sit
	// high so auto-assigned consumer ids cannot collide.
	doneMeta := scheduler.JobMeta{ID: 100, Name: "done", File: "corpus"}
	if err := d.Adopt(doneMeta, runtime.JobDone, 2, true); err != nil {
		t.Fatal(err)
	}
	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{100}, nil)
	if err != nil {
		t.Fatalf("consumer of recovered producer refused: %v", err)
	}
	mustState(t, src, cid, runtime.JobQueued)
	d.Pop(5)
	if m.calls[100] != 0 {
		t.Fatal("re-materialized a producer recovery already rebuilt")
	}

	// Recovered done but unmaterialized producer: resubmitting the
	// consumer under its old id, as recovery does, queues it and the next
	// Pop materializes.
	done2 := scheduler.JobMeta{ID: 200, Name: "done2", File: "corpus"}
	if err := d.Adopt(done2, runtime.JobDone, 3, false); err != nil {
		t.Fatal(err)
	}
	heldMeta := scheduler.JobMeta{ID: 210, Name: "held", File: "job-200.out"}
	if _, err := d.SubmitStage(heldMeta, []scheduler.JobID{200}, nil); err != nil {
		t.Fatal(err)
	}
	mustState(t, src, 210, runtime.JobQueued)
	d.Pop(6)
	if m.calls[200] != 1 {
		t.Fatalf("Pop materialized recovered producer %d times, want 1", m.calls[200])
	}

	// Recovered failed producer: its consumer is refused.
	failedMeta := scheduler.JobMeta{ID: 300, Name: "bad", File: "corpus"}
	if err := d.Adopt(failedMeta, runtime.JobFailed, 4, false); err != nil {
		t.Fatal(err)
	}
	orphan := scheduler.JobMeta{ID: 310, Name: "orphan", File: "job-300.out"}
	if _, err := d.SubmitStage(orphan, []scheduler.JobID{300}, nil); !errors.Is(err, ErrDoomed) {
		t.Fatalf("consumer of a failed producer: %v, want ErrDoomed", err)
	}

	// Recovered pending producer: the resubmitted consumer waits, then a
	// live finish releases it.
	pendMeta := scheduler.JobMeta{ID: 400, Name: "pend", File: "corpus"}
	if err := d.Adopt(pendMeta, runtime.JobRunning, 0, false); err != nil {
		t.Fatal(err)
	}
	waiter := scheduler.JobMeta{ID: 410, Name: "waiter", File: "job-400.out"}
	if _, err := d.SubmitStage(waiter, []scheduler.JobID{400}, nil); err != nil {
		t.Fatal(err)
	}
	mustState(t, src, 410, runtime.JobWaiting)
	d.JobFinished(400, vclock.Time(8))
	mustState(t, src, 410, runtime.JobQueued)
	if m.calls[400] != 1 {
		t.Fatalf("materializer called %d times for resumed producer, want 1", m.calls[400])
	}
}

// Concurrent submissions racing a producer's finish must neither lose a
// release nor double-materialize (run under -race in CI).
func TestLiveDAGConcurrentSubmitAndFinish(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	pid, err := d.SubmitStage(scheduler.JobMeta{Name: "p", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)

	const consumers = 16
	ids := make([]scheduler.JobID, consumers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			id, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{pid}, nil)
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
		d.JobFinished(pid, vclock.Time(3))
	}()
	close(start)
	wg.Wait()

	// Every consumer ends queued regardless of which side of the finish
	// its submission landed on; drain any deferred materializations.
	d.Pop(vclock.Time(4))
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
	d, src := newTestDAG(m)

	pid, err := d.SubmitStage(scheduler.JobMeta{Name: "wc", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, vclock.Time(5))

	m.fail[pid] = true
	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "topk", File: "job-1.out"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatalf("late consumer refused: %v", err)
	}
	downstream, err := d.SubmitStage(scheduler.JobMeta{Name: "top-of-topk"}, []scheduler.JobID{cid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := d.SubmitStage(scheduler.JobMeta{Name: "wc2", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	got := d.Pop(vclock.Time(8))
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
	if _, err := d.SubmitStage(scheduler.JobMeta{Name: "topk2"}, []scheduler.JobID{pid}, nil); !errors.Is(err, ErrDoomed) {
		t.Fatalf("second reader of an output that cannot become a file: %v, want ErrDoomed", err)
	}
	d.Pop(vclock.Time(9))
	if m.calls[pid] != 1 {
		t.Fatalf("materializer asked %d times, want 1", m.calls[pid])
	}
}

// A stage held on one producer while another of its producers already
// finished, unread: the finished one's output is materialized too before
// the stage is delivered — by the Pop that follows its release.
func TestLiveDAGHeldStageWithFinishedUnreadProducer(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	p1, _ := d.SubmitStage(scheduler.JobMeta{Name: "p1", File: "corpus"}, nil, nil)
	p2, _ := d.SubmitStage(scheduler.JobMeta{Name: "p2", File: "corpus"}, nil, nil)
	d.Pop(0)
	d.JobFinished(p1, vclock.Time(2))
	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "join", File: "job-1.out"}, []scheduler.JobID{p1, p2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustState(t, src, cid, runtime.JobWaiting)
	d.JobFinished(p2, vclock.Time(4))
	mustState(t, src, cid, runtime.JobWaiting) // p1's output is no file yet
	if got := d.Pop(vclock.Time(5)); len(got) != 1 || got[0].Job.ID != cid {
		t.Fatalf("Pop = %+v, want the join %d", got, cid)
	}
	if m.calls[p1] != 1 || m.calls[p2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer before the join is delivered", m.calls)
	}
}
