package scheduler_test

import (
	"testing"

	"s3sched/internal/core"
)

func TestWindowSealsOnSizeCap(t *testing.T) {
	p := makePlan(t, 2, 2) // 1 segment
	w, err := core.NewWindowMRShare(p, 100, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.NextRound(1); ok {
		t.Fatal("batch of 1 inside window must not run yet")
	}
	if err := w.Submit(job(2), 2); err != nil {
		t.Fatal(err)
	}
	r, ok := w.NextRound(2)
	if !ok || len(r.Jobs) != 2 {
		t.Fatalf("size-capped batch should run: %+v ok=%v", r, ok)
	}
	done := w.RoundDone(r, 3)
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if w.PendingJobs() != 0 {
		t.Fatalf("pending = %d", w.PendingJobs())
	}
}

func TestWindowSealsOnExpiry(t *testing.T) {
	p := makePlan(t, 2, 2)
	w, err := core.NewWindowMRShare(p, 50, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.NextRound(40); ok {
		t.Fatal("window not expired at t=40 (first at 10, window 50)")
	}
	wake, ok := w.NextWake(40)
	if !ok || wake != 60 {
		t.Fatalf("NextWake = %v/%v, want 60/true", wake, ok)
	}
	r, ok := w.NextRound(60)
	if !ok || len(r.Jobs) != 1 {
		t.Fatalf("expired batch should run: ok=%v jobs=%v", ok, r.JobIDs())
	}
	w.RoundDone(r, 61)
}

func TestWindowLateArrivalStartsNewBatch(t *testing.T) {
	p := makePlan(t, 2, 2)
	w, err := core.NewWindowMRShare(p, 50, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Job 2 arrives after job 1's window expired but before the
	// driver polled: it must not join job 1's batch.
	if err := w.Submit(job(2), 70); err != nil {
		t.Fatal(err)
	}
	r, ok := w.NextRound(70)
	if !ok || len(r.Jobs) != 1 || r.Jobs[0].ID != 1 {
		t.Fatalf("first batch = %v, want job 1 alone", r.JobIDs())
	}
	w.RoundDone(r, 71)
	// Job 2's own window (70..120) has not expired at t=71.
	if _, ok := w.NextRound(71); ok {
		t.Fatal("job 2's batch should still be filling")
	}
	r, ok = w.NextRound(120)
	if !ok || len(r.Jobs) != 1 || r.Jobs[0].ID != 2 {
		t.Fatalf("second batch = %v, want job 2", r.JobIDs())
	}
	w.RoundDone(r, 121)
}

func TestWindowValidationAndErrors(t *testing.T) {
	p := makePlan(t, 2, 2)
	if _, err := core.NewWindowMRShare(p, 0, 2, nil); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := core.NewWindowMRShare(p, 10, 0, nil); err == nil {
		t.Error("zero maxBatch should fail")
	}
	w, err := core.NewWindowMRShare(p, 10, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "mrshare-window" {
		t.Errorf("Name = %q", w.Name())
	}
	if err := w.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 1); err == nil {
		t.Error("duplicate should fail")
	}
	bad := job(2)
	bad.File = "x"
	if err := w.Submit(bad, 1); err == nil {
		t.Error("wrong file should fail")
	}
	if _, ok := w.NextWake(0); !ok {
		t.Error("filling batch should report a wake time")
	}
}

func TestWindowProtocolPanics(t *testing.T) {
	p := makePlan(t, 2, 2)
	w, err := core.NewWindowMRShare(p, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := w.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NextRound should panic")
			}
		}()
		w.NextRound(0)
	}()
	w.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stray RoundDone should panic")
			}
		}()
		w.RoundDone(r, 1)
	}()
	if _, ok := w.NextWake(2); ok {
		t.Error("no filling batch -> no wake time")
	}
}

func TestWindowFreshJobsAndTagged(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	w, err := core.NewWindowMRShare(p, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r0, _ := w.NextRound(5)
	if r0.FreshJobs != 1 || !r0.Tagged {
		t.Errorf("first round = %+v, want FreshJobs=1 Tagged", r0)
	}
	w.RoundDone(r0, 6)
	r1, _ := w.NextRound(6)
	if r1.FreshJobs != 0 {
		t.Errorf("continuation round FreshJobs = %d, want 0", r1.FreshJobs)
	}
	w.RoundDone(r1, 7)
}
