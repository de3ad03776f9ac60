package core

import (
	"encoding/json"
	"testing"

	"s3sched/internal/scheduler"
)

func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	// Reference: uninterrupted run.
	ref := New(makePlan(t, 12, 3), nil) // 4 segments
	if err := ref.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	var refTrace []string
	step := func(s scheduler.Scheduler, submitAt int, traceOut *[]string) bool {
		r, ok := s.NextRound(0)
		if !ok {
			return false
		}
		done := s.RoundDone(r, 0)
		*traceOut = append(*traceOut, roundKey(r, done))
		return true
	}
	// Run 2 rounds, then submit job 2 and run to completion.
	for i := 0; i < 2; i++ {
		step(ref, 0, &refTrace)
	}
	if err := ref.Submit(job(2), 20); err != nil {
		t.Fatal(err)
	}
	for step(ref, 0, &refTrace) {
	}

	// Interrupted run: same 2 rounds, snapshot, "crash", restore.
	orig := oneFile(t, makePlan(t, 12, 3))
	if err := orig.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	var gotTrace []string
	for i := 0; i < 2; i++ {
		step(orig, 0, &gotTrace)
	}
	snap, err := orig.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap) // as the journal persists it
	if err != nil {
		t.Fatal(err)
	}
	var decoded scheduler.Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := oneFile(t, makePlan(t, 12, 3))
	if err := restored.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	if err := restored.Submit(job(2), 20); err != nil {
		t.Fatal(err)
	}
	for step(restored, 0, &gotTrace) {
	}

	if len(gotTrace) != len(refTrace) {
		t.Fatalf("round counts differ: %v vs %v", gotTrace, refTrace)
	}
	for i := range refTrace {
		if gotTrace[i] != refTrace[i] {
			t.Fatalf("round %d differs: %q vs %q", i, gotTrace[i], refTrace[i])
		}
	}
}

func roundKey(r scheduler.Round, done []scheduler.JobID) string {
	return string(rune('A'+r.Segment)) + ":" + itoa(len(r.Jobs)) + ":" + itoa(len(done))
}

func itoa(n int) string { return string(rune('0' + n)) }

func TestSnapshotRejectsInFlight(t *testing.T) {
	s := New(makePlan(t, 4, 2), nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(0)
	if _, err := s.Snapshot(); err == nil {
		t.Error("snapshot mid-round should fail")
	}
	s.RoundDone(r, 1)
	if _, err := s.Snapshot(); err != nil {
		t.Errorf("snapshot after RoundDone: %v", err)
	}
}

func TestRestoreValidation(t *testing.T) {
	plan := makePlan(t, 12, 3) // file "input", 4 segments
	good := scheduler.QueueSnapshot{File: "input", Segments: 4, Cursor: 2, Jobs: []scheduler.JobSnapshot{
		{Meta: job(1), StartSegment: 0, Remaining: 2},
	}}
	restore := func(q scheduler.QueueSnapshot) error {
		s := oneFile(t, plan)
		return s.RestoreState(scheduler.Snapshot{Scheme: s.Name(), Queues: []scheduler.QueueSnapshot{q}})
	}
	if err := restore(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []scheduler.QueueSnapshot{
		{File: "other", Segments: 4, Cursor: 0},
		{File: "input", Segments: 5, Cursor: 0},
		{File: "input", Segments: 4, Cursor: 9},
		{File: "input", Segments: 4, Cursor: 0, Jobs: []scheduler.JobSnapshot{{Meta: job(1), Remaining: 0}}},
		{File: "input", Segments: 4, Cursor: 0, Jobs: []scheduler.JobSnapshot{{Meta: job(1), Remaining: 9}}},
		{File: "input", Segments: 4, Cursor: 0, Jobs: []scheduler.JobSnapshot{{Meta: job(1), StartSegment: -1, Remaining: 1}}},
		{File: "input", Segments: 4, Cursor: 3, Jobs: []scheduler.JobSnapshot{
			{Meta: job(1), Remaining: 1}, {Meta: job(1), Remaining: 1},
		}},
		// Started at 0 with 3 of 4 left, the job needs segment 1 next,
		// not the cursor's 2.
		{File: "input", Segments: 4, Cursor: 2, Jobs: []scheduler.JobSnapshot{{Meta: job(1), Remaining: 3}}},
		{File: "input", Segments: 4, Cursor: 2, Jobs: []scheduler.JobSnapshot{
			{Meta: scheduler.JobMeta{ID: 1, File: "other"}, Remaining: 2},
		}},
	}
	for i, snap := range cases {
		if err := restore(snap); err == nil {
			t.Errorf("case %d: invalid snapshot accepted: %+v", i, snap)
		}
	}
}
