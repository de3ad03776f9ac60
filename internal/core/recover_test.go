package core

import (
	"testing"

	"s3sched/internal/scheduler"
)

// TestS3RequeueReformsSameSegment: a lost round must be re-formed over
// the same segment — the cursor did not advance and no sub-job was
// consumed — so the circular order is preserved exactly.
func TestS3RequeueReformsSameSegment(t *testing.T) {
	p := makePlan(t, 8, 2) // 4 segments
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, ok := s.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	s.RequeueRound(r1, 1)

	r2, ok := s.NextRound(2)
	if !ok {
		t.Fatal("no round after requeue")
	}
	if r2.Segment != r1.Segment {
		t.Fatalf("requeued round segment = %d, want %d", r2.Segment, r1.Segment)
	}
	if len(r2.Jobs) != 1 || r2.Jobs[0].ID != 1 {
		t.Fatalf("requeued round jobs = %v, want [1]", r2.JobIDs())
	}

	// The job still needs all 4 segments: the lost scan counted for
	// nothing.
	var segs []int
	segs = append(segs, r2.Segment)
	s.RoundDone(r2, 3)
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		segs = append(segs, r.Segment)
		s.RoundDone(r, 0)
	}
	if len(segs) != 4 {
		t.Fatalf("segments after requeue = %v, want 4 distinct scans", segs)
	}
}

// TestS3RequeuedRoundPicksUpLateArrivals: the paper's dynamic sub-job
// adjustment — a job submitted while the lost round was in flight
// aligns into the re-formed round over the same segment.
func TestS3RequeuedRoundPicksUpLateArrivals(t *testing.T) {
	p := makePlan(t, 8, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, _ := s.NextRound(0)
	// Job 2 arrives while round 1 is (about to be declared) lost.
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	s.RequeueRound(r1, 2)

	r2, ok := s.NextRound(3)
	if !ok {
		t.Fatal("no round after requeue")
	}
	if r2.Segment != r1.Segment {
		t.Fatalf("requeued segment = %d, want %d", r2.Segment, r1.Segment)
	}
	ids := r2.JobIDs()
	if len(ids) != 2 {
		t.Fatalf("requeued round jobs = %v, want both jobs sharing the scan", ids)
	}
	// Job 2 now starts at the requeued segment, not the one after it, so
	// a snapshot of the queue still holds Algorithm 1's invariant.
	if got := s.Active()[1].StartSegment; got != r1.Segment {
		t.Fatalf("job 2 starts at segment %d, want %d", got, r1.Segment)
	}
}

// TestS3RequeueWithoutRoundPanics guards the serial-round protocol.
func TestS3RequeueWithoutRoundPanics(t *testing.T) {
	p := makePlan(t, 8, 2)
	s := New(p, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RequeueRound without a round in flight did not panic")
		}
	}()
	s.RequeueRound(scheduler.Round{}, 0)
}
