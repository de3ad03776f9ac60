package pipeline

import (
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
	d.JobFinished(pid, vclock.Time(9), false)
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
	d.JobFinished(pid, vclock.Time(5), false)
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

	pid, err := d.SubmitStage(scheduler.JobMeta{Name: "p", File: "corpus"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, 1, true)
	if _, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{pid}, nil); err == nil {
		t.Fatal("accepted a dependency on a failed job")
	}
	if m.calls[pid] != 0 {
		t.Fatal("failed producer was materialized")
	}
}

func TestLiveDAGCascadeFail(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	pid, _ := d.SubmitStage(scheduler.JobMeta{Name: "p", File: "corpus"}, nil, nil)
	c1, err := d.SubmitStage(scheduler.JobMeta{Name: "c1"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.SubmitStage(scheduler.JobMeta{Name: "c2"}, []scheduler.JobID{c1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, vclock.Time(4), true)

	mustState(t, src, pid, runtime.JobFailed)
	mustState(t, src, c1, runtime.JobFailed)
	mustState(t, src, c2, runtime.JobFailed)
	if got := d.Pop(vclock.Time(99)); len(got) != 0 {
		t.Fatalf("cascade-failed stages still delivered: %+v", got)
	}
}

func TestLiveDAGMaterializeErrorCascades(t *testing.T) {
	m := newCountingMat(0)
	d, src := newTestDAG(m)

	pid, _ := d.SubmitStage(scheduler.JobMeta{Name: "p", File: "corpus"}, nil, nil)
	m.fail[pid] = true
	cid, err := d.SubmitStage(scheduler.JobMeta{Name: "c"}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Pop(0)
	d.JobFinished(pid, vclock.Time(4), false)

	// The producer itself succeeded; only its dependents are undeliverable.
	mustState(t, src, pid, runtime.JobDone)
	mustState(t, src, cid, runtime.JobFailed)
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
	d.JobFinished(p1, 3, false)
	mustState(t, src, cid, runtime.JobWaiting)
	d.JobFinished(p2, 5, false)
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
	if err := src.Adopt(doneMeta, runtime.JobDone, 0, 2); err != nil {
		t.Fatal(err)
	}
	d.AdoptDone(100, false)
	d.AdoptMaterialized(100)
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
	if err := src.Adopt(done2, runtime.JobDone, 0, 3); err != nil {
		t.Fatal(err)
	}
	d.AdoptDone(200, false)
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
	if err := src.Adopt(failedMeta, runtime.JobFailed, 0, 4); err != nil {
		t.Fatal(err)
	}
	d.AdoptDone(300, true)
	orphan := scheduler.JobMeta{ID: 310, Name: "orphan", File: "job-300.out"}
	if _, err := d.SubmitStage(orphan, []scheduler.JobID{300}, nil); err == nil {
		t.Fatal("consumer of a failed producer accepted")
	}

	// Recovered pending producer: the resubmitted consumer waits, then a
	// live finish releases it.
	pendMeta := scheduler.JobMeta{ID: 400, Name: "pend", File: "corpus"}
	if err := src.Adopt(pendMeta, runtime.JobRunning, 0, 0); err != nil {
		t.Fatal(err)
	}
	waiter := scheduler.JobMeta{ID: 410, Name: "waiter", File: "job-400.out"}
	if _, err := d.SubmitStage(waiter, []scheduler.JobID{400}, nil); err != nil {
		t.Fatal(err)
	}
	mustState(t, src, 410, runtime.JobWaiting)
	d.JobFinished(400, vclock.Time(8), false)
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
		d.JobFinished(pid, vclock.Time(3), false)
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
