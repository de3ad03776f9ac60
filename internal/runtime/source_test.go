package runtime

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"s3sched/internal/core"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

var errTest = errors.New("test error")

func meta(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: "input", Weight: 1, ReduceWeight: 1}
}

// Jobs due at one time are delivered in id order, whatever order they
// were submitted in — the tie rule of a recorded trace.
func TestLiveSourceOrdersEqualStampsByID(t *testing.T) {
	src := NewLiveSourceOn(vclock.NewVirtual(), nil)
	for _, a := range []Arrival{{Job: meta(3), At: 5}, {Job: meta(1), At: 0}, {Job: meta(2), At: 5}} {
		if _, err := src.SubmitStage(a, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if at, ok := src.Peek(); !ok || at != 0 {
		t.Fatalf("Peek = %v,%v, want 0,true", at, ok)
	}
	if got := src.Pop(0); len(got) != 1 || got[0].Job.ID != 1 {
		t.Fatalf("Pop(0) = %v, want job 1", got)
	}
	got := src.Pop(10)
	if len(got) != 2 || got[0].Job.ID != 2 || got[1].Job.ID != 3 || got[0].At != 5 {
		t.Fatalf("Pop(10) = %v, want jobs 2,3 at 5", got)
	}
	if src.Pending() != 0 || src.Wait() {
		t.Errorf("Pending = %d, Wait = %v on a closed, drained source", src.Pending(), src.Wait())
	}
}

// A held job released after Close is still queued, at the latest of its
// own lower bound and the release's, in its (stamp, id) place — also
// ahead of what is queued, and never rewriting what was delivered. Jobs
// 5 and 2 are held on producer 1, 3 on 8 and 7 on 9, which finish at 0,
// 2 and 12.
func TestLiveSourceReleaseAfterClose(t *testing.T) {
	src := NewLiveSourceOn(vclock.NewVirtual(), func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil })
	for _, a := range []Arrival{{Job: meta(1), At: 0}, {Job: meta(4), At: 5}, {Job: meta(6), At: 9}, {Job: meta(8), At: 0}, {Job: meta(9), At: 0}} {
		if _, err := src.SubmitStage(a, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []struct {
		a   Arrival
		dep scheduler.JobID
	}{{Arrival{Job: meta(5), At: 5}, 1}, {Arrival{Job: meta(3), At: 5}, 8}, {Arrival{Job: meta(2), At: 1}, 1}, {Arrival{Job: meta(7), At: 0}, 9}} {
		if _, err := src.SubmitStage(h.a, []scheduler.JobID{h.dep}, nil); err != nil {
			t.Fatal(err)
		}
	}
	popped := src.Pop(0)
	for _, a := range popped {
		if err := src.JobAdmitted(a.Job.ID, a.At); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	for _, f := range []struct {
		id scheduler.JobID
		at vclock.Time
	}{{1, 0}, {8, 2}, {9, 12}} {
		if _, err := src.JobFinished(f.id, f.at); err != nil {
			t.Fatalf("JobFinished(%d) after Close: %v", f.id, err)
		}
	}
	if len(popped) != 3 || popped[0].Job.ID != 1 || popped[1].Job.ID != 8 || popped[2].Job.ID != 9 {
		t.Fatalf("a release rewrote a delivered arrival: %v", popped)
	}
	if st, _ := src.Status(7); st.State != JobQueued || st.AdmittedAt != 12 {
		t.Fatalf("job 7 released at 12 has status %+v", st)
	}
	if at, ok := src.Peek(); !ok || at != 1 || src.Pending() != 6 {
		t.Fatalf("Peek = %v,%v Pending = %d, want 1,true and 6", at, ok, src.Pending())
	}
	var got []scheduler.JobID
	for _, a := range src.Pop(20) {
		got = append(got, a.Job.ID)
	}
	if want := []scheduler.JobID{2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) || src.Wait() {
		t.Fatalf("Pop(20) = %v, want %v and nothing left", got, want)
	}
}

// A negative arrival time is refused at submission, and RunTrace
// returns the refusal before it runs anything.
func TestLiveSourceRejectsNegativeTime(t *testing.T) {
	src := NewLiveSource()
	if _, err := src.SubmitStage(Arrival{Job: meta(1), At: -1}, nil, nil); err == nil || !strings.Contains(err.Error(), "negative time") {
		t.Fatalf("SubmitStage err = %v, want negative-time refusal", err)
	}
	exec := ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) {
		t.Fatal("RunTrace ran a round")
		return 0, nil
	})
	_, err := RunTrace(core.New(makePlan(t, 2, 1), nil), exec, []Arrival{{Job: meta(1), At: 0}, {Job: meta(2), At: -1}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "negative time") {
		t.Fatalf("RunTrace err = %v, want negative-time refusal", err)
	}
}

func TestLiveSourceAssignsAndTracksIDs(t *testing.T) {
	src := NewLiveSource()
	id1, err := src.SubmitWith(scheduler.JobMeta{Name: "a", File: "input"}, nil)
	if err != nil || id1 != 1 {
		t.Fatalf("first SubmitWith = %v,%v, want 1,nil", id1, err)
	}
	// A caller-chosen id advances the allocator past itself.
	id7, err := src.SubmitWith(scheduler.JobMeta{ID: 7, Name: "b", File: "input"}, nil)
	if err != nil || id7 != 7 {
		t.Fatalf("explicit SubmitWith = %v,%v, want 7,nil", id7, err)
	}
	if _, err := src.SubmitWith(scheduler.JobMeta{ID: 7, File: "input"}, nil); err == nil {
		t.Fatal("duplicate id accepted")
	}
	id8, err := src.SubmitWith(scheduler.JobMeta{Name: "c", File: "input"}, nil)
	if err != nil || id8 != 8 {
		t.Fatalf("post-explicit SubmitWith = %v,%v, want 8,nil", id8, err)
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
	id, err := src.SubmitWith(scheduler.JobMeta{File: "input"}, nil)
	if err != nil || id != 1 {
		t.Fatalf("SubmitWith after failed pre = %v,%v, want 1,nil", id, err)
	}
}

func TestLiveSourceLifecycle(t *testing.T) {
	src := NewLiveSource()
	id, err := src.SubmitWith(scheduler.JobMeta{Name: "wc", File: "input"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := src.Pop(12)
	if len(got) != 1 || got[0].At != 12 {
		t.Fatalf("Pop stamped %v, want admission at now=12", got)
	}
	if err := src.JobAdmitted(id, 12); err != nil {
		t.Fatal(err)
	}
	if st, _ := src.Status(id); st.State != JobRunning || st.AdmittedAt != 12 {
		t.Fatalf("after admit: %+v", st)
	}
	if waits, err := src.JobsStarted([]scheduler.JobID{id}, 20); err != nil || !slices.Equal(waits, []vclock.Duration{8}) {
		t.Fatalf("JobsStarted = %v, %v; want a wait of 8", waits, err)
	}
	if rt, err := src.JobFinished(id, 30); err != nil || rt != 18 {
		t.Fatalf("JobFinished = %v, %v; want a response of 18", rt, err)
	}
	if st, _ := src.Status(id); st.State != JobDone || st.StartedAt != 20 || st.DoneAt != 30 {
		t.Fatalf("after finish: %+v", st)
	}
	if _, ok := src.Status(99); ok {
		t.Error("Status(99) found a job that was never submitted")
	}
	src.Close()
	if _, err := src.SubmitWith(scheduler.JobMeta{File: "input"}, nil); err == nil {
		t.Fatal("SubmitWith after Close succeeded")
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
	src := NewLiveSourceOn(clock, func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil })
	producer, err := src.SubmitWith(meta(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	src.Pop(0)
	if err := src.JobAdmitted(producer, 0); err != nil {
		t.Fatal(err)
	}
	first, err := src.SubmitWith(meta(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	held, err := src.SubmitStage(Arrival{Job: meta(0)}, []scheduler.JobID{producer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(5)
	if _, err := src.JobFinished(producer, 0); err != nil {
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

// running returns a source holding one job, id 1, admitted at 10.
func running(t *testing.T) *LiveSource {
	t.Helper()
	src := NewLiveSource()
	if _, err := src.SubmitStage(Arrival{Job: meta(1), At: 10}, nil, nil); err != nil {
		t.Fatal(err)
	}
	src.Pop(10)
	if err := src.JobAdmitted(1, 10); err != nil {
		t.Fatal(err)
	}
	return src
}

// The checks the run's job table makes on every stamp: each of the
// following fails the run instead of corrupting TET or ART.

func TestLiveSourceAdmitTwice(t *testing.T) {
	if err := running(t).JobAdmitted(1, 11); err == nil {
		t.Fatal("a second admission of job 1 was accepted")
	}
}

func TestLiveSourceStampUnknownJob(t *testing.T) {
	src := running(t)
	if err := src.JobAdmitted(9, 10); err == nil {
		t.Error("admitted a job that was never submitted")
	}
	if _, err := src.JobsStarted([]scheduler.JobID{1, 9}, 12); err == nil {
		t.Error("started a job that was never submitted")
	}
	if _, err := src.JobFinished(9, 12); err == nil {
		t.Error("finished a job that was never submitted")
	}
}

func TestLiveSourceFinishTwice(t *testing.T) {
	src := running(t)
	if _, err := src.JobFinished(1, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := src.JobFinished(1, 25); err == nil {
		t.Fatal("a second finish of job 1 was accepted")
	}
	if st, _ := src.Status(1); st.DoneAt != 20 {
		t.Fatalf("the refused finish moved doneAt to %v", st.DoneAt)
	}
}

func TestLiveSourceStampBeforeAdmission(t *testing.T) {
	src := running(t)
	if _, err := src.JobsStarted([]scheduler.JobID{1}, 5); err == nil {
		t.Error("a start before the admission at 10 was accepted")
	}
	if _, err := src.JobFinished(1, 5); err == nil {
		t.Error("a finish before the admission at 10 was accepted")
	}
}

// §III-B: response = waiting (admission → first round that includes the
// job) + processing (first round → completion); later rounds do not move
// the start.
func TestWaitingProcessingDecomposition(t *testing.T) {
	src := running(t)
	if waits, err := src.JobsStarted([]scheduler.JobID{1}, 40); err != nil || !slices.Equal(waits, []vclock.Duration{30}) {
		t.Fatalf("first launch: waits %v, %v; want [30]", waits, err)
	}
	if waits, err := src.JobsStarted([]scheduler.JobID{1}, 60); err != nil || len(waits) != 0 {
		t.Fatalf("second launch: waits %v, %v; want none", waits, err)
	}
	rt, err := src.JobFinished(1, 140)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := src.Status(1)
	w, p := st.StartedAt.Sub(st.AdmittedAt), st.DoneAt.Sub(st.StartedAt)
	if w != 30 || p != 100 || w+p != rt {
		t.Fatalf("wait/processing = %v/%v, response %v; want 30/100 summing to it", w, p, rt)
	}
}

// Property: for any valid admission <= start <= completion, the waits
// and responses the source reports and its records agree, and waiting +
// processing == response exactly.
func TestDecompositionIdentityProperty(t *testing.T) {
	prop := func(subs, waits, procs [5]uint8) bool {
		src := NewLiveSourceOn(vclock.NewVirtual(), nil)
		for i := range subs {
			if _, err := src.SubmitStage(Arrival{Job: meta(i + 1), At: vclock.Time(subs[i] % 100)}, nil, nil); err != nil {
				return false
			}
		}
		reported := map[scheduler.JobID][2]vclock.Duration{}
		for _, a := range src.Pop(100) {
			id, i := a.Job.ID, int(a.Job.ID)-1
			start := a.At.Add(vclock.Duration(waits[i] % 50))
			done := start.Add(vclock.Duration(procs[i]%50) + 1)
			if src.JobAdmitted(id, a.At) != nil {
				return false
			}
			w, err1 := src.JobsStarted([]scheduler.JobID{id}, start)
			rt, err2 := src.JobFinished(id, done)
			if err1 != nil || err2 != nil || len(w) != 1 {
				return false
			}
			reported[id] = [2]vclock.Duration{w[0], rt}
		}
		for _, st := range src.Jobs() {
			w, p, rt := st.StartedAt.Sub(st.AdmittedAt), st.DoneAt.Sub(st.StartedAt), st.DoneAt.Sub(st.AdmittedAt)
			if w+p != rt || reported[st.ID] != [2]vclock.Duration{w, rt} {
				return false
			}
		}
		return len(reported) == len(subs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGraphRules pins the dependency rules by hand, through a
// LiveSource: the edge rule's three refusals, held and doomed, release
// on the last producer, and the failure cone in the order it fails.
func TestGraphRules(t *testing.T) {
	var made []scheduler.JobID
	src := NewLiveSourceOn(nil, func(id scheduler.JobID, _ vclock.Time) (vclock.Duration, error) {
		made = append(made, id)
		return 0, nil
	})
	ids := func(v ...scheduler.JobID) []scheduler.JobID { return v }
	submit := func(id scheduler.JobID, deps []scheduler.JobID) (JobState, error) {
		_, err := src.SubmitStage(Arrival{Job: scheduler.JobMeta{ID: id}}, deps, nil)
		st, _ := src.Status(id)
		return st.State, err
	}
	for _, id := range ids(1, 2) {
		if state, err := submit(id, nil); state != JobQueued || err != nil {
			t.Fatalf("SubmitStage(%d) = %s, %v", id, state, err)
		}
	}
	for _, tc := range []struct {
		id   scheduler.JobID
		deps []scheduler.JobID
		want string
	}{
		{3, ids(1, 3), "stage depends on itself"},
		{3, ids(9), "depends on unknown job 9"},
		{3, ids(2, 1, 2), "lists dependency 2 twice"},
		{0, ids(8), "new stage depends on unknown job 8"}, // not numbered by the source yet
		{2, nil, "duplicate stage id 2"},
	} {
		if _, err := submit(tc.id, tc.deps); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SubmitStage(%d, %v) = %v, want %q", tc.id, tc.deps, err, tc.want)
		}
	}
	if n := len(src.Jobs()); n != 2 {
		t.Fatalf("the refusals left %d jobs, want the 2 roots", n)
	}
	// 3 waits for 1 and 2; 4 and 5 stack on 3, 6 on 4 and 2.
	for _, st := range []Stage{{Job: scheduler.JobMeta{ID: 3}, DependsOn: ids(1, 2)}, {Job: scheduler.JobMeta{ID: 4}, DependsOn: ids(3)},
		{Job: scheduler.JobMeta{ID: 5}, DependsOn: ids(3)}, {Job: scheduler.JobMeta{ID: 6}, DependsOn: ids(4, 2)}} {
		if state, err := submit(st.Job.ID, st.DependsOn); state != JobWaiting || err != nil {
			t.Fatalf("SubmitStage(%d, %v) = %s, %v, want held", st.Job.ID, st.DependsOn, state, err)
		}
	}
	for _, a := range src.Pop(0) {
		if err := src.JobAdmitted(a.Job.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.JobFinished(1, 1); err != nil || src.Pending() != 0 || !slices.Equal(made, ids(1)) {
		t.Fatalf("finishing 1 (%v) made %v and queued %d with producer 2 open", err, made, src.Pending())
	}
	if _, err := src.JobFinished(2, 2); err != nil || !slices.Equal(made, ids(1, 2)) {
		t.Fatalf("finishing 2 (%v) made %v, want [1 2]: 2 has readers", err, made)
	}
	if _, err := src.JobFinished(2, 3); err == nil || !slices.Equal(made, ids(1, 2)) {
		t.Fatalf("a second finish of 2 (%v) made %v", err, made)
	}
	if got := src.Pop(3); len(got) != 1 || got[0].Job.ID != 3 || src.Pending() != 0 {
		t.Fatalf("Pop = %+v, want 3 once, released by its last producer", got)
	}
	src.mu.Lock()
	cone, again := src.doom(src.status[3]), src.doom(src.status[3])
	src.mu.Unlock()
	if !slices.Equal(cone, ids(4, 6, 5)) || again != nil {
		t.Fatalf("doom(3) = %v then %v, want [4 6 5], depth first, once", cone, again)
	}
	if _, err := submit(7, ids(1, 6)); !errors.Is(err, ErrDoomed) || len(src.Jobs()) != 6 {
		t.Fatalf("SubmitStage on a failed producer = %v, want ErrDoomed and no trace", err)
	}
	if state, err := submit(7, ids(1, 2)); state != JobQueued || err != nil {
		t.Fatalf("SubmitStage on made producers = %s, %v, want queued", state, err)
	}
}
