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
				id, err := src.SubmitWith(scheduler.JobMeta{Name: fmt.Sprintf("s%d-%d", i, j), File: "corpus"}, nil)
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
	if _, err := src.SubmitWith(scheduler.JobMeta{Name: "late"}, nil); err == nil {
		t.Fatal("SubmitWith after Close succeeded")
	}
	drainWG.Wait()

	for id := range accepted {
		if !delivered[id] {
			t.Fatalf("job %d was accepted but never delivered", id)
		}
	}
}

// Recovery's Adopt of settled producers racing held submissions of the
// dependents of resumed ones: ids must stay collision-free and every held
// job must stay waiting until its producer finishes.
func TestLiveSourceAdoptRacesPendingDependents(t *testing.T) {
	const pairs = 24
	src := NewLiveSourceOn(nil, func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil })

	var wg sync.WaitGroup
	heldIDs := make([]scheduler.JobID, pairs)
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func(p scheduler.JobID) {
			defer wg.Done()
			if err := src.Adopt(scheduler.JobMeta{ID: p, Name: "recovered"}, JobDone, 0, 5, true); err != nil {
				t.Errorf("Adopt %d: %v", p, err)
			}
		}(scheduler.JobID(2000 + i))
		go func(i int, p scheduler.JobID) {
			defer wg.Done()
			if err := src.Adopt(scheduler.JobMeta{ID: p, Name: "resumed"}, JobRunning, 0, 0, false); err != nil {
				t.Errorf("Adopt %d: %v", p, err)
				return
			}
			// Explicit ids in a disjoint range: auto-assignment could land
			// on a producer id whose Adopt has not run yet.
			id, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{ID: scheduler.JobID(5000 + i), Name: "dependent"}}, []scheduler.JobID{p}, nil)
			if err != nil {
				t.Errorf("SubmitStage: %v", err)
				return
			}
			heldIDs[i] = id
		}(i, scheduler.JobID(1000+i))
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

	// Producers finishing concurrently: every dependent lands in the
	// queue exactly once.
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(p scheduler.JobID) {
			defer wg.Done()
			if _, err := src.JobFinished(p, 1); err != nil {
				t.Errorf("JobFinished %d: %v", p, err)
			}
		}(scheduler.JobID(1000 + i))
	}
	wg.Wait()
	if got := src.Pending(); got != pairs {
		t.Fatalf("Pending() = %d, want %d", got, pairs)
	}
	if got := src.Pop(2); len(got) != pairs {
		t.Fatalf("Pop delivered %d, want %d", len(got), pairs)
	}
}

// A held stage's lifecycle: held on an unfinished producer; refused with
// the id kept free when its pre-hook fails; failed, held or queued,
// when its producer's output cannot become a file; released after
// Close; and no new stage is accepted after it.
func TestLiveSourceHeldLifecycle(t *testing.T) {
	bad := map[scheduler.JobID]bool{}
	src := NewLiveSourceOn(nil, func(id scheduler.JobID, _ vclock.Time) (vclock.Duration, error) {
		if bad[id] {
			return 0, errTest
		}
		return 0, nil
	})
	var producers [3]scheduler.JobID
	for i := range producers {
		id, err := src.SubmitWith(scheduler.JobMeta{Name: "producer", File: "corpus"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		producers[i] = id
	}
	pid, lost, late := producers[0], producers[1], producers[2]
	cid, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "consumer"}}, []scheduler.JobID{pid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := heldJobs(src); got != 1 {
		t.Fatalf("%d jobs held, want 1", got)
	}

	// A held job's pre-hook failure must not consume the id.
	if _, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "bad"}}, []scheduler.JobID{pid}, func(scheduler.JobID) error {
		return fmt.Errorf("refused")
	}); err == nil {
		t.Fatal("pre-hook failure not propagated")
	}

	victim, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "victim"}}, []scheduler.JobID{lost}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if victim != cid+1 {
		t.Fatalf("victim got id %d, want %d: the refused stage consumed one", victim, cid+1)
	}
	if got := src.Pop(0); len(got) != 3 {
		t.Fatalf("Pop = %+v, want the three producers", got)
	}
	for _, id := range producers {
		if err := src.JobAdmitted(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	bad[lost], bad[late] = true, true
	if _, err := src.JobFinished(lost, 7); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(victim); st.State != JobFailed || st.DoneAt != 7 {
		t.Fatalf("failed-held status = %+v", st)
	}

	// A queued job the engine has not popped fails the same way, and is
	// not delivered: a late reader of an unread producer; the producer,
	// popped already, is out of the source's hands and stays done.
	if _, err := src.JobFinished(late, 1); err != nil {
		t.Fatal(err)
	}
	doomed, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "doomed"}}, []scheduler.JobID{late}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(doomed); st.State != JobQueued {
		t.Fatalf("late reader's status = %+v, want queued", st)
	}
	if got := src.Pop(8); len(got) != 0 {
		t.Fatalf("Pop = %+v, want nothing", got)
	}
	if st, _ := src.Status(doomed); st.State != JobFailed || st.DoneAt != 8 || len(st.DependsOn) != 1 {
		t.Fatalf("failed-queued status = %+v", st)
	}
	if st, _ := src.Status(late); st.State != JobDone {
		t.Fatalf("producer status = %+v, want done", st)
	}

	// Release works after Close: held jobs whose dependencies settle
	// during drain still run.
	src.Close()
	if _, err := src.JobFinished(pid, 9); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(cid); st.State != JobQueued {
		t.Fatalf("released status = %+v", st)
	}
	if _, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{Name: "late"}}, []scheduler.JobID{pid}, nil); err == nil {
		t.Fatal("SubmitStage after Close succeeded")
	}
}

func TestLiveSourceAdoptValidation(t *testing.T) {
	src := NewLiveSource()
	if err := src.Adopt(scheduler.JobMeta{Name: "anon"}, JobDone, 0, 0, false); err == nil {
		t.Fatal("Adopt without id succeeded")
	}
	if err := src.Adopt(scheduler.JobMeta{ID: 3, Name: "done"}, JobDone, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := src.Adopt(scheduler.JobMeta{ID: 3, Name: "dup"}, JobDone, 0, 0, false); err == nil {
		t.Fatal("duplicate Adopt succeeded")
	}
	// Adopted ids reserve the id space: the next auto-assigned id must
	// not collide.
	id, err := src.SubmitWith(scheduler.JobMeta{Name: "next"}, nil)
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
	held := 0
	for _, r := range s.status {
		if r.held != nil {
			held++
		}
	}
	return held
}
