package core

import (
	"testing"

	"s3sched/internal/scheduler"
)

func TestNoCircularWaitsForNextPass(t *testing.T) {
	p := makePlan(t, 6, 2) // 3 segments
	n := NewNoCircular(p, nil)
	if err := n.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Pass 1, segment 0 running; job 2 arrives.
	r0, _ := n.NextRound(0)
	if r0.Segment != 0 || len(r0.Jobs) != 1 {
		t.Fatalf("r0 = %+v", r0)
	}
	n.RoundDone(r0, 1)
	if err := n.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	// Job 2 must NOT join the running pass: segments 1 and 2 stay
	// single-job.
	for want := 1; want <= 2; want++ {
		r, _ := n.NextRound(0)
		if r.Segment != want || len(r.Jobs) != 1 {
			t.Fatalf("segment %d round = %+v, want job 1 alone", want, r)
		}
		n.RoundDone(r, 0)
	}
	// New pass: job 2 from segment 0.
	r, _ := n.NextRound(0)
	if r.Segment != 0 || len(r.Jobs) != 1 || r.Jobs[0].ID != 2 {
		t.Fatalf("new pass round = %+v", r)
	}
	n.RoundDone(r, 0)
	for i := 0; i < 2; i++ {
		r, _ := n.NextRound(0)
		n.RoundDone(r, 0)
	}
	if n.PendingJobs() != 0 {
		t.Fatalf("pending = %d", n.PendingJobs())
	}
}

func TestNoCircularBatchesWaiters(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	n := NewNoCircular(p, nil)
	if err := n.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(job(2), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := n.NextRound(0)
	if len(r.Jobs) != 2 {
		t.Fatalf("jobs waiting together should share the pass, got %v", r.JobIDs())
	}
	n.RoundDone(r, 0)
	r, _ = n.NextRound(0)
	done := n.RoundDone(r, 0)
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
}

func TestNoCircularErrorsAndName(t *testing.T) {
	p := makePlan(t, 4, 2)
	n := NewNoCircular(p, nil)
	if n.Name() != "s3-nocircular" {
		t.Errorf("Name = %q", n.Name())
	}
	if err := n.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(job(1), 0); err == nil {
		t.Error("duplicate should fail")
	}
	bad := job(2)
	bad.File = "x"
	if err := n.Submit(bad, 0); err == nil {
		t.Error("wrong file should fail")
	}
	if _, ok := NewNoCircular(p, nil).NextRound(0); ok {
		t.Error("empty scheduler should be idle")
	}
}

func TestStaticS3ParksLateArrivals(t *testing.T) {
	p := makePlan(t, 6, 2) // 3 segments
	s := NewStatic(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(0)
	// Job 2 arrives mid-flight: with dynamic adjustment disabled it
	// must be parked, not aligned.
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	if s.PendingJobs() != 2 {
		t.Fatalf("pending = %d, want 2 (1 active + 1 parked)", s.PendingJobs())
	}
	s.RoundDone(r, 1)
	// Job 1's remaining rounds run alone.
	for i := 0; i < 2; i++ {
		r, _ := s.NextRound(0)
		if len(r.Jobs) != 1 || r.Jobs[0].ID != 1 {
			t.Fatalf("round %d = %v, want job 1 alone", i, r.JobIDs())
		}
		s.RoundDone(r, 0)
	}
	// Now job 2 is admitted and runs its own 3 rounds.
	rounds := 0
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		if len(r.Jobs) != 1 || r.Jobs[0].ID != 2 {
			t.Fatalf("parked job round = %v", r.JobIDs())
		}
		rounds++
		s.RoundDone(r, 0)
	}
	if rounds != 3 {
		t.Fatalf("job 2 ran %d rounds, want 3", rounds)
	}
	if s.PendingJobs() != 0 {
		t.Fatalf("pending = %d", s.PendingJobs())
	}
}

func TestStaticS3SharesWhenIdleAtSubmit(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := NewStatic(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Queue manager has active work but nothing in flight: job 2 still
	// parks (the batch for the next segment is already formed).
	if err := s.Submit(job(2), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(0)
	if len(r.Jobs) != 1 {
		t.Fatalf("static S3 must not re-batch: %v", r.JobIDs())
	}
	s.RoundDone(r, 0)
}

func TestStaticS3DuplicateDetection(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := NewStatic(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(1), 0); err == nil {
		t.Error("duplicate of active job should fail")
	}
	if err := s.Submit(job(2), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2), 0); err == nil {
		t.Error("duplicate of parked job should fail")
	}
	bad := job(3)
	bad.File = "zzz"
	if err := s.Submit(bad, 0); err == nil {
		t.Error("wrong file should fail even when parking")
	}
	if s.Name() != "s3-static" {
		t.Errorf("Name = %q", s.Name())
	}
}

// Under a dense two-job arrival, plain S3 shares three of four rounds
// while s3-static runs 2x the rounds — the measurable value of dynamic
// sub-job adjustment.
func TestStaticVsDynamicRoundCount(t *testing.T) {
	count := func(s scheduler.Scheduler) int {
		if err := s.Submit(job(1), 0); err != nil {
			t.Fatal(err)
		}
		r, _ := s.NextRound(0)
		if err := s.Submit(job(2), 1); err != nil {
			t.Fatal(err)
		}
		s.RoundDone(r, 1)
		rounds := 1
		for {
			r, ok := s.NextRound(0)
			if !ok {
				break
			}
			rounds++
			s.RoundDone(r, 0)
		}
		return rounds
	}
	dynamic := count(New(makePlan(t, 8, 2), nil))
	static := count(NewStatic(makePlan(t, 8, 2), nil))
	if dynamic != 5 {
		t.Errorf("dynamic rounds = %d, want 5 (1 alone + 3 shared + 1 tail)", dynamic)
	}
	if static != 8 {
		t.Errorf("static rounds = %d, want 8 (two full passes)", static)
	}
}

// A lost s3-static round re-forms over the same segment with the same
// jobs, and a job parked meanwhile stays parked.
func TestStaticS3RequeueKeepsParkedJobs(t *testing.T) {
	s := NewStatic(makePlan(t, 4, 2), nil) // 2 segments
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, _ := s.NextRound(0)
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	s.RequeueRound(r1, 2)
	r2, ok := s.NextRound(3)
	if !ok || r2.Segment != r1.Segment || len(r2.Jobs) != 1 || r2.Jobs[0].ID != 1 {
		t.Fatalf("requeued round = %+v, want job 1 alone over segment %d", r2, r1.Segment)
	}
	if s.PendingJobs() != 2 {
		t.Fatalf("pending = %d, want 2 (1 active + 1 parked)", s.PendingJobs())
	}
}
