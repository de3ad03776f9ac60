package runtime

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

var errTest = errors.New("test error")

func meta(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: "input", Weight: 1, ReduceWeight: 1}
}

func TestTraceSourceOrdersAndDrains(t *testing.T) {
	src, err := NewTraceSource([]Arrival{
		{Job: meta(3), At: 5},
		{Job: meta(1), At: 0},
		{Job: meta(2), At: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := src.Peek(); !ok || at != 0 {
		t.Fatalf("Peek = %v,%v, want 0,true", at, ok)
	}
	if got := src.Pop(0); len(got) != 1 || got[0].Job.ID != 1 {
		t.Fatalf("Pop(0) = %v, want job 1", got)
	}
	// Ties at t=5 break by job id.
	got := src.Pop(10)
	if len(got) != 2 || got[0].Job.ID != 2 || got[1].Job.ID != 3 {
		t.Fatalf("Pop(10) = %v, want jobs 2,3", got)
	}
	if src.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", src.Pending())
	}
	if src.Wait() {
		t.Error("Wait() = true on exhausted trace")
	}
}

// Insert places an arrival among the undelivered ones in (time, id)
// order — also ahead of everything, also on an exhausted trace — and
// leaves what an earlier Pop returned alone.
func TestTraceSourceInsert(t *testing.T) {
	src, err := NewTraceSource([]Arrival{{Job: meta(1), At: 0}, {Job: meta(4), At: 5}, {Job: meta(6), At: 9}})
	if err != nil {
		t.Fatal(err)
	}
	popped := src.Pop(0)
	src.Insert(Arrival{Job: meta(5), At: 5})
	src.Insert(Arrival{Job: meta(3), At: 5})
	src.Insert(Arrival{Job: meta(2), At: 1})
	src.Insert(Arrival{Job: meta(7), At: 12})
	if len(popped) != 1 || popped[0].Job.ID != 1 {
		t.Fatalf("an Insert rewrote a delivered arrival: %v", popped)
	}
	if at, ok := src.Peek(); !ok || at != 1 || src.Pending() != 6 {
		t.Fatalf("Peek = %v,%v Pending = %d, want 1,true and 6", at, ok, src.Pending())
	}
	var got []scheduler.JobID
	for _, a := range src.Pop(20) {
		got = append(got, a.Job.ID)
	}
	if want := []scheduler.JobID{2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("Pop(20) = %v, want %v", got, want)
	}
	src.Insert(Arrival{Job: meta(8), At: 3})
	if got := src.Pop(20); len(got) != 1 || got[0].Job.ID != 8 || src.Wait() {
		t.Fatalf("Pop after an Insert into an exhausted trace = %v, want job 8", got)
	}
}

func TestTraceSourceRejectsNegativeTime(t *testing.T) {
	_, err := NewTraceSource([]Arrival{{Job: meta(1), At: -1}})
	if err == nil || !strings.Contains(err.Error(), "negative time") {
		t.Fatalf("err = %v, want negative-time rejection", err)
	}
}

func TestLiveSourceAssignsAndTracksIDs(t *testing.T) {
	src := NewLiveSource()
	id1, err := src.Submit(scheduler.JobMeta{Name: "a", File: "input"})
	if err != nil || id1 != 1 {
		t.Fatalf("first Submit = %v,%v, want 1,nil", id1, err)
	}
	// A caller-chosen id advances the allocator past itself.
	id7, err := src.Submit(scheduler.JobMeta{ID: 7, Name: "b", File: "input"})
	if err != nil || id7 != 7 {
		t.Fatalf("explicit Submit = %v,%v, want 7,nil", id7, err)
	}
	if _, err := src.Submit(scheduler.JobMeta{ID: 7, File: "input"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	id8, err := src.Submit(scheduler.JobMeta{Name: "c", File: "input"})
	if err != nil || id8 != 8 {
		t.Fatalf("post-explicit Submit = %v,%v, want 8,nil", id8, err)
	}
	jobs := src.Jobs()
	if len(jobs) != 3 || jobs[0].ID != 1 || jobs[1].ID != 7 || jobs[2].ID != 8 {
		t.Fatalf("Jobs() = %v, want submission order 1,7,8", jobs)
	}
	for _, j := range jobs {
		if j.State != JobQueued {
			t.Errorf("job %d state = %q, want queued", j.ID, j.State)
		}
	}
}

func TestLiveSourcePreHookFailureKeepsIDFree(t *testing.T) {
	src := NewLiveSource()
	boom := func(scheduler.JobID) error { return errTest }
	if _, err := src.SubmitWith(scheduler.JobMeta{File: "input"}, boom); err != errTest {
		t.Fatalf("SubmitWith err = %v, want errTest", err)
	}
	if src.Pending() != 0 {
		t.Fatalf("failed submission enqueued: pending = %d", src.Pending())
	}
	// The rejected submission's id is reused by the next success.
	id, err := src.Submit(scheduler.JobMeta{File: "input"})
	if err != nil || id != 1 {
		t.Fatalf("Submit after failed pre = %v,%v, want 1,nil", id, err)
	}
}

func TestLiveSourceLifecycle(t *testing.T) {
	src := NewLiveSource()
	id, err := src.Submit(scheduler.JobMeta{Name: "wc", File: "input"})
	if err != nil {
		t.Fatal(err)
	}
	got := src.Pop(12)
	if len(got) != 1 || got[0].At != 12 {
		t.Fatalf("Pop stamped %v, want admission at now=12", got)
	}
	src.JobAdmitted(id, 12)
	if st, _ := src.Status(id); st.State != JobRunning || st.AdmittedAt != 12 {
		t.Fatalf("after admit: %+v", st)
	}
	src.JobFinished(id, 30)
	if st, _ := src.Status(id); st.State != JobDone || st.DoneAt != 30 {
		t.Fatalf("after finish: %+v", st)
	}
	if _, ok := src.Status(99); ok {
		t.Error("Status(99) found a job that was never submitted")
	}
	src.Close()
	if _, err := src.Submit(scheduler.JobMeta{File: "input"}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	if src.Wait() {
		t.Error("Wait() = true on closed, drained source")
	}
}

// A live source on a clock stamps a job when it is queued — submitted,
// or released from hold — reports the stamp as admittedAt at once, and
// delivers only what is due.
func TestLiveSourceOnClockStampsWhenQueued(t *testing.T) {
	clock := vclock.NewVirtual()
	src := NewLiveSourceOn(clock)
	first, err := src.Submit(meta(0))
	if err != nil {
		t.Fatal(err)
	}
	held, err := src.SubmitStage(meta(0), []scheduler.JobID{first}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(5)
	if err := src.Release(held); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(held); st.State != JobQueued || st.AdmittedAt != 5 {
		t.Fatalf("released job's status %+v, want queued and admitted at 5", st)
	}
	if at, ok := src.Peek(); !ok || at != 0 {
		t.Fatalf("Peek = %v,%v, want the first job's stamp 0", at, ok)
	}
	if got := src.Pop(3); len(got) != 1 || got[0].Job.ID != first || got[0].At != 0 {
		t.Fatalf("Pop(3) = %v, want the first job at 0 only", got)
	}
	if at, ok := src.Peek(); !ok || at != 5 || src.Pending() != 1 {
		t.Fatalf("Peek = %v,%v with %d pending, want the released job at 5", at, ok, src.Pending())
	}
	if got := src.Pop(5); len(got) != 1 || got[0].Job.ID != held || got[0].At != 5 {
		t.Fatalf("Pop(5) = %v, want the released job at 5", got)
	}
}
