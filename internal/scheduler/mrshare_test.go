package scheduler_test

import (
	"errors"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/scheduler"
)

func TestMRShareSingleBatchWaitsForAll(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	m, err := core.NewMRShare(p, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(2), 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextRound(5); ok {
		t.Fatal("batch of 3 must not run with only 2 jobs submitted")
	}
	if !m.Stalled() {
		t.Error("scheduler with a partial batch and nothing running should report scheduler.Stalled")
	}
	if err := m.Submit(job(3), 9); err != nil {
		t.Fatal(err)
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2 (one merged pass over the file)", len(rounds))
	}
	for i, r := range rounds {
		if len(r.Jobs) != 3 {
			t.Errorf("round %d batch size = %d, want 3", i, len(r.Jobs))
		}
		if r.Segment != i {
			t.Errorf("round %d segment = %d, want %d (scan from beginning)", i, r.Segment, i)
		}
	}
	if len(completed) != 3 {
		t.Fatalf("completed = %v, want all 3 at once", completed)
	}
	if m.PendingJobs() != 0 {
		t.Errorf("pending = %d", m.PendingJobs())
	}
}

func TestMRShareTwoBatches(t *testing.T) {
	p := makePlan(t, 2, 2) // 1 segment -> 1 round per batch
	m, err := core.NewMRShare(p, []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := m.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	if ids := rounds[0].JobIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("batch 1 = %v, want [1 2]", ids)
	}
	if ids := rounds[1].JobIDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Errorf("batch 2 = %v, want [3 4]", ids)
	}
	if len(completed) != 4 {
		t.Errorf("completed = %v", completed)
	}
}

func TestMRShareSecondBatchReadyWhileFirstRuns(t *testing.T) {
	p := makePlan(t, 2, 1) // 2 segments
	m, err := core.NewMRShare(p, []int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := m.NextRound(0)
	// Batch 2 fills while batch 1 is mid-flight.
	if err := m.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	m.RoundDone(r, 2)
	r2, _ := m.NextRound(2)
	if r2.Jobs[0].ID != 1 || r2.Segment != 1 {
		t.Fatalf("batch 1 should keep running, got %+v", r2)
	}
	done := m.RoundDone(r2, 3)
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("done = %v", done)
	}
	r3, _ := m.NextRound(3)
	if r3.Jobs[0].ID != 2 || r3.Segment != 0 {
		t.Fatalf("batch 2 should start from segment 0, got %+v", r3)
	}
}

func TestMRShareConfigValidation(t *testing.T) {
	p := makePlan(t, 2, 2)
	if _, err := core.NewMRShare(p, nil, nil); err == nil {
		t.Error("empty batch list should fail")
	}
	if _, err := core.NewMRShare(p, []int{2, 0}, nil); err == nil {
		t.Error("zero batch size should fail")
	}
	if _, err := core.NewMRShare(p, []int{-1}, nil); err == nil {
		t.Error("negative batch size should fail")
	}
}

func TestMRShareOverCapacityRejected(t *testing.T) {
	p := makePlan(t, 2, 2)
	m, err := core.NewMRShare(p, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(2), 0); err == nil {
		t.Error("submission beyond batch plan capacity should fail")
	}
}

func TestMRShareDuplicateAndWrongFile(t *testing.T) {
	p := makePlan(t, 2, 2)
	m, err := core.NewMRShare(p, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("err = %v, want scheduler.ErrDuplicateJob", err)
	}
	bad := job(2)
	bad.File = "nope"
	if err := m.Submit(bad, 0); !errors.Is(err, scheduler.ErrWrongFile) {
		t.Errorf("err = %v, want scheduler.ErrWrongFile", err)
	}
}

func TestMRShareProtocolViolationsPanic(t *testing.T) {
	p := makePlan(t, 2, 2)
	m, err := core.NewMRShare(p, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := m.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextRound with round in flight should panic")
			}
		}()
		m.NextRound(0)
	}()
	m.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RoundDone without round in flight should panic")
			}
		}()
		m.RoundDone(r, 1)
	}()
}

func TestMRShareNameAndNotStalledWhenComplete(t *testing.T) {
	p := makePlan(t, 2, 2)
	m, err := core.NewMRShare(p, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mrshare" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Stalled() {
		t.Error("fresh scheduler must not be stalled")
	}
	if err := m.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if m.Stalled() {
		t.Error("completed scheduler must not be stalled")
	}
}
