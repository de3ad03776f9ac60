package scheduler_test

import (
	"fmt"
	"testing"

	"s3sched/internal/scheduler"
)

func TestFairRoundRobinsBetweenJobs(t *testing.T) {
	p := makePlan(t, 6, 2) // 3 segments
	f := scheduler.NewFair(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(job(2), 0); err != nil {
		t.Fatal(err)
	}
	type slice struct{ job, seg int }
	var order []slice
	var completions []scheduler.JobID
	for {
		r, ok := f.NextRound(0)
		if !ok {
			break
		}
		order = append(order, slice{int(r.Jobs[0].ID), r.Segment})
		completions = append(completions, f.RoundDone(r, 0)...)
	}
	want := []slice{{1, 0}, {2, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if len(completions) != 2 || completions[0] != 1 || completions[1] != 2 {
		t.Fatalf("completions = %v", completions)
	}
	if f.PendingJobs() != 0 {
		t.Fatalf("pending = %d", f.PendingJobs())
	}
}

func TestFairNoSharing(t *testing.T) {
	// Each job scans every segment for itself: 2 jobs over 3 segments
	// is 6 rounds, where S^3 would need 3.
	p := makePlan(t, 3, 1)
	f := scheduler.NewFair(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(job(2), 0); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for {
		r, ok := f.NextRound(0)
		if !ok {
			break
		}
		if len(r.Jobs) != 1 {
			t.Fatalf("fair round has batch %v; fair never merges", r.JobIDs())
		}
		rounds++
		f.RoundDone(r, 0)
	}
	if rounds != 6 {
		t.Fatalf("rounds = %d, want 6", rounds)
	}
}

func TestFairLateArrivalJoinsRotation(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	f := scheduler.NewFair(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0) // job 1 segment 0
	if err := f.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	f.RoundDone(r, 1)
	// Rotation now alternates: job 2 gets the next slice.
	r2, _ := f.NextRound(1)
	if r2.Jobs[0].ID != 2 || r2.Segment != 0 {
		t.Fatalf("round 2 = job %d seg %d, want job 2 seg 0", r2.Jobs[0].ID, r2.Segment)
	}
	f.RoundDone(r2, 2)
	r3, _ := f.NextRound(2)
	if r3.Jobs[0].ID != 1 || r3.Segment != 1 {
		t.Fatalf("round 3 = job %d seg %d, want job 1 seg 1", r3.Jobs[0].ID, r3.Segment)
	}
	done := f.RoundDone(r3, 3)
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("done = %v", done)
	}
	// Job 2 finishes its remaining segment.
	r4, _ := f.NextRound(3)
	if r4.Jobs[0].ID != 2 || r4.Segment != 1 {
		t.Fatalf("round 4 = %+v", r4)
	}
	if done := f.RoundDone(r4, 4); len(done) != 1 || done[0] != 2 {
		t.Fatalf("done = %v", done)
	}
}

func TestFairErrorsAndPanics(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := scheduler.NewFair(p, nil)
	if f.Name() != "fair" {
		t.Errorf("Name = %q", f.Name())
	}
	if _, ok := f.NextRound(0); ok {
		t.Error("empty scheduler should be idle")
	}
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(job(1), 0); err == nil {
		t.Error("duplicate should fail")
	}
	bad := job(2)
	bad.File = "x"
	if err := f.Submit(bad, 0); err == nil {
		t.Error("wrong file should fail")
	}
	r, _ := f.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NextRound should panic")
			}
		}()
		f.NextRound(0)
	}()
	f.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stray RoundDone should panic")
			}
		}()
		f.RoundDone(r, 1)
	}()
}
