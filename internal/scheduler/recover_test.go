package scheduler_test

import (
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/scheduler"
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

// TestMRShareRequeueRepeatsBatchRound: a lost MRShare round re-forms
// with the whole merged batch over the same segment.
func TestMRShareRequeueRepeatsBatchRound(t *testing.T) {
	p := makePlan(t, 8, 2)
	m, err := core.NewMRShare(p, []int{2}, nil)
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

// TestFairRequeueKeepsTheSlice: a lost fair slice re-forms for the same
// job over the same segment, and the rotation then goes on as if the
// slice had run once.
func TestFairRequeueKeepsTheSlice(t *testing.T) {
	f := scheduler.NewFair(makePlan(t, 4, 2), nil) // 2 segments
	for i := 1; i <= 2; i++ {
		if err := f.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := f.NextRound(0)
	f.RequeueRound(r1, 1)
	mustPanic(t, "RequeueRound idle", func() { f.RequeueRound(r1, 1) })
	r2, ok := f.NextRound(2)
	if !ok || r2.Jobs[0].ID != r1.Jobs[0].ID || r2.Segment != r1.Segment {
		t.Fatalf("requeued slice = %+v, want job %d segment %d", r2, r1.Jobs[0].ID, r1.Segment)
	}
	f.RoundDone(r2, 3)
	if r3, _ := f.NextRound(3); r3.Jobs[0].ID != 2 || r3.Segment != 0 {
		t.Fatalf("after the re-run slice: %+v, want job 2 segment 0", r3)
	}
}
