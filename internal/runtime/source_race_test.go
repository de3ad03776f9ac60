package runtime

import (
	"fmt"
	"sync"
	"testing"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// The admission races the DAG work exposes, exercised under -race (CI
// runs this package with -race -shuffle=on -count=2).

// Submissions racing Close and the engine's drain: every submission
// that returns success must be delivered by some Pop — a job accepted
// into a closing queue cannot be dropped — and submissions after the
// close must fail, never wedge.
func TestLiveSourceSubmitRacesCloseDrain(t *testing.T) {
	const submitters = 8
	const perSubmitter = 50

	src := NewLiveSource()
	accepted := make(chan scheduler.JobID, submitters*perSubmitter)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				id, err := src.Submit(scheduler.JobMeta{Name: fmt.Sprintf("s%d-%d", i, j), File: "corpus"})
				if err != nil {
					return // closed underneath us: everything later fails too
				}
				accepted <- id
			}
		}(i)
	}

	// The engine side: drain until Wait reports closed-and-empty.
	delivered := make(map[scheduler.JobID]bool)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for src.Wait() {
			for _, a := range src.Pop(vclock.Time(1)) {
				delivered[a.Job.ID] = true
			}
		}
		for _, a := range src.Pop(vclock.Time(2)) {
			delivered[a.Job.ID] = true
		}
	}()

	src.Close()
	wg.Wait()
	close(accepted)
	// Post-close submissions must fail fast.
	if _, err := src.Submit(scheduler.JobMeta{Name: "late"}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	drainWG.Wait()

	for id := range accepted {
		if !delivered[id] {
			t.Fatalf("job %d was accepted but never delivered", id)
		}
	}
}

// Recovery's Adopt of settled producers racing held submissions of
// their dependents: ids must stay collision-free and every held job
// must stay waiting until explicitly released.
func TestLiveSourceAdoptRacesPendingDependents(t *testing.T) {
	const pairs = 24
	src := NewLiveSource()

	var wg sync.WaitGroup
	heldIDs := make([]scheduler.JobID, pairs)
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		producer := scheduler.JobID(1000 + i)
		go func(p scheduler.JobID) {
			defer wg.Done()
			if err := src.Adopt(scheduler.JobMeta{ID: p, Name: "recovered"}, JobDone, 0, 5); err != nil {
				t.Errorf("Adopt %d: %v", p, err)
			}
		}(producer)
		go func(i int, p scheduler.JobID) {
			defer wg.Done()
			// Explicit ids in a disjoint range: auto-assignment could land
			// on a producer id whose Adopt has not run yet.
			id, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{ID: scheduler.JobID(5000 + i), Name: "dependent"}}, []scheduler.JobID{p}, true, nil)
			if err != nil {
				t.Errorf("SubmitStage: %v", err)
				return
			}
			heldIDs[i] = id
		}(i, producer)
	}
	wg.Wait()

	if got := heldJobs(src); got != pairs {
		t.Fatalf("%d jobs held, want %d", got, pairs)
	}
	for _, id := range heldIDs {
		st, ok := src.Status(id)
		if !ok || st.State != JobWaiting {
			t.Fatalf("held job %d state = %v, want waiting", id, st.State)
		}
		if len(st.DependsOn) != 1 {
			t.Fatalf("held job %d DependsOn = %v", id, st.DependsOn)
		}
	}
	// Held jobs never show up in Pop until released.
	if got := src.Pop(1); len(got) != 0 {
		t.Fatalf("Pop delivered held jobs: %+v", got)
	}

	// Concurrent releases: everything lands in the queue exactly once.
	for _, id := range heldIDs {
		wg.Add(1)
		go func(id scheduler.JobID) {
			defer wg.Done()
			if err := src.Release(id, 0); err != nil {
				t.Errorf("Release %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if got := src.Pending(); got != pairs {
		t.Fatalf("Pending() = %d, want %d", got, pairs)
	}
	if got := src.Pop(2); len(got) != pairs {
		t.Fatalf("Pop delivered %d, want %d", len(got), pairs)
	}
}

func TestLiveSourceHeldLifecycle(t *testing.T) {
	src := NewLiveSource()
	pid, err := src.Submit(scheduler.JobMeta{Name: "producer", File: "corpus"})
	if err != nil {
		t.Fatal(err)
	}
	cid, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "consumer"}}, []scheduler.JobID{pid}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := heldJobs(src); got != 1 {
		t.Fatalf("%d jobs held, want 1", got)
	}
	if err := src.Release(cid+99, 0); err == nil {
		t.Fatal("Release of unknown id succeeded")
	}
	if err := src.Fail(cid+99, 0); err == nil {
		t.Fatal("Fail of unknown id succeeded")
	}

	// A held job's pre-hook failure must not consume the id.
	if _, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "bad"}}, nil, true, func(scheduler.JobID) error {
		return fmt.Errorf("refused")
	}); err == nil {
		t.Fatal("pre-hook failure not propagated")
	}

	victim, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "victim"}}, []scheduler.JobID{pid}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fail(victim, vclock.Time(7)); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(victim); st.State != JobFailed || st.DoneAt != 7 {
		t.Fatalf("failed-held status = %+v", st)
	}

	// A queued job the engine has not popped fails the same way, and is
	// not delivered; one the engine has popped is out of the source's hands.
	doomed, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "doomed"}}, []scheduler.JobID{pid}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fail(doomed, vclock.Time(8)); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(doomed); st.State != JobFailed || st.DoneAt != 8 || len(st.DependsOn) != 1 {
		t.Fatalf("failed-queued status = %+v", st)
	}
	if got := src.Pop(9); len(got) != 1 || got[0].Job.ID != pid {
		t.Fatalf("Pop = %+v, want the producer alone", got)
	}
	if err := src.Fail(pid, 9); err == nil {
		t.Fatal("Fail of a delivered job succeeded")
	}

	// Release works after Close: held jobs whose dependencies settle
	// during drain still run.
	src.Close()
	if err := src.Release(cid, 0); err != nil {
		t.Fatalf("Release after Close: %v", err)
	}
	if st, _ := src.Status(cid); st.State != JobQueued {
		t.Fatalf("released status = %+v", st)
	}
	if _, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "late"}}, nil, true, nil); err == nil {
		t.Fatal("SubmitStage after Close succeeded")
	}
}

func TestLiveSourceAdoptValidation(t *testing.T) {
	src := NewLiveSource()
	if err := src.Adopt(scheduler.JobMeta{Name: "anon"}, JobDone, 0, 0); err == nil {
		t.Fatal("Adopt without id succeeded")
	}
	if err := src.Adopt(scheduler.JobMeta{ID: 3, Name: "done"}, JobDone, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := src.Adopt(scheduler.JobMeta{ID: 3, Name: "dup"}, JobDone, 0, 0); err == nil {
		t.Fatal("duplicate Adopt succeeded")
	}
	// Adopted ids reserve the id space: the next auto-assigned id must
	// not collide.
	id, err := src.Submit(scheduler.JobMeta{Name: "next"})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 3 {
		t.Fatalf("auto-assigned id %d collides with adopted id space", id)
	}
	if st, _ := src.Status(3); st.AdmittedAt != 1 || st.DoneAt != 2 {
		t.Fatalf("adopted timestamps lost: %+v", st)
	}
}

// heldJobs is how many accepted jobs wait on dependencies.
func heldJobs(s *LiveSource) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}
