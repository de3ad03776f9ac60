package scheduler

import (
	"testing"
)

// TestFIFORequeueRepeatsSegment: a lost FIFO round is re-formed over
// the same segment with the same job; progress is unchanged.
func TestFIFORequeueRepeatsSegment(t *testing.T) {
	p := makePlan(t, 8, 2) // 4 segments
	f := newFIFO(t, nil, p)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, _ := f.NextRound(0)
	f.RoundDone(r1, 1) // segment 0 done
	r2, _ := f.NextRound(1)
	if r2.Segment != 1 {
		t.Fatalf("segment = %d, want 1", r2.Segment)
	}
	f.RequeueRound(r2, 2)
	r3, ok := f.NextRound(3)
	if !ok || r3.Segment != 1 || r3.Jobs[0].ID != 1 {
		t.Fatalf("requeued round = %+v, want segment 1 job 1", r3)
	}
	f.RoundDone(r3, 4)
	_, completed := drain(t, f)
	if len(completed) != 1 || completed[0] != 1 {
		t.Fatalf("completed = %v, want [1]", completed)
	}
}

// TestFIFOAbortRunningJob: aborting the mid-file job frees the slot for
// the next queued job, which starts from segment 0.
func TestFIFOAbortRunningJob(t *testing.T) {
	p := makePlan(t, 8, 2)
	f := newFIFO(t, nil, p)
	for i := 1; i <= 2; i++ {
		if err := f.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := f.NextRound(0)
	if r1.Jobs[0].ID != 1 {
		t.Fatalf("first round runs job %d, want 1", r1.Jobs[0].ID)
	}
	f.RoundDone(r1, 1)
	f.AbortJobs([]JobID{1}, 1)
	if got := f.PendingJobs(); got != 1 {
		t.Fatalf("PendingJobs = %d after abort, want 1", got)
	}
	r2, ok := f.NextRound(2)
	if !ok || r2.Jobs[0].ID != 2 || r2.Segment != 0 {
		t.Fatalf("round after abort = %+v, want job 2 at segment 0", r2)
	}
}

// TestMRShareRequeueRepeatsBatchRound: a lost MRShare round re-forms
// with the whole merged batch over the same segment.
func TestMRShareRequeueRepeatsBatchRound(t *testing.T) {
	p := makePlan(t, 8, 2)
	m, err := NewMRShare(p, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := m.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	r1, ok := m.NextRound(0)
	if !ok || len(r1.Jobs) != 2 {
		t.Fatalf("round = %+v, want batch of 2", r1)
	}
	m.RequeueRound(r1, 1)
	r2, ok := m.NextRound(2)
	if !ok || r2.Segment != r1.Segment || len(r2.Jobs) != 2 {
		t.Fatalf("requeued round = %+v, want batch of 2 over segment %d", r2, r1.Segment)
	}
}

// TestMRShareAbortFillingKeepsBatchPlan: aborting a job that is still
// filling a batch must not strand the batch — it becomes ready at the
// same submission count, just smaller (fillAborted bookkeeping).
func TestMRShareAbortFillingKeepsBatchPlan(t *testing.T) {
	p := makePlan(t, 8, 2)
	m, err := NewMRShare(p, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := m.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Batch of 3 is filling with jobs {1, 2}; job 2 fails elsewhere.
	m.AbortJobs([]JobID{2}, 1)
	if _, ok := m.NextRound(1); ok {
		t.Fatal("batch ran before reaching its planned size")
	}
	// The third submission still completes the batch — now {1, 3}.
	if err := m.Submit(job(3), 2); err != nil {
		t.Fatal(err)
	}
	r, ok := m.NextRound(2)
	if !ok {
		t.Fatal("batch did not become ready at its planned submission count")
	}
	ids := r.JobIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("batch jobs = %v, want [1 3]", ids)
	}
}

// TestMRShareAbortDissolvesEmptyRunningBatch: a running batch whose
// last member aborts dissolves, letting the next batch start.
func TestMRShareAbortDissolvesEmptyRunningBatch(t *testing.T) {
	p := makePlan(t, 8, 2)
	m, err := NewMRShare(p, []int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := m.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := m.NextRound(0)
	if r1.Jobs[0].ID != 1 {
		t.Fatalf("first batch runs job %d, want 1", r1.Jobs[0].ID)
	}
	m.RoundDone(r1, 1)
	m.AbortJobs([]JobID{1}, 1)
	r2, ok := m.NextRound(2)
	if !ok || r2.Jobs[0].ID != 2 || r2.Segment != 0 {
		t.Fatalf("round after abort = %+v, want job 2 from segment 0", r2)
	}
}
