package core

import (
	"errors"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// makeNamedPlan builds a segment plan over a named meta file.
func makeNamedPlan(t *testing.T, name string, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile(name, numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

// step runs one full round on any scheduler.
func step(t *testing.T, s scheduler.Scheduler) []scheduler.JobID {
	t.Helper()
	r, ok := s.NextRound(0)
	if !ok {
		t.Fatal("scheduler idle with pending jobs")
	}
	return s.RoundDone(r, 0)
}

// oneFile is the one-file case of the scheduler that snapshots: what a
// single-input workload runs.
func oneFile(t *testing.T, plan *dfs.SegmentPlan) *MultiFile {
	t.Helper()
	m, err := NewMultiFile([]*dfs.SegmentPlan{plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestS3StateSnapshotRoundtrip(t *testing.T) {
	s := oneFile(t, makePlan(t, 12, 3)) // 4 segments
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	step(t, s)
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	step(t, s)

	snap, err := s.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "s3-multifile" || len(snap.Queues) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// A restored scheduler finishes the remaining rounds identically.
	r2 := oneFile(t, makePlan(t, 12, 3))
	if err := r2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	var refDone, restDone []scheduler.JobID
	for s.PendingJobs() > 0 {
		refDone = append(refDone, step(t, s)...)
	}
	for r2.PendingJobs() > 0 {
		restDone = append(restDone, step(t, r2)...)
	}
	if len(refDone) != len(restDone) {
		t.Fatalf("ref completed %v, restored %v", refDone, restDone)
	}
	for i := range refDone {
		if refDone[i] != restDone[i] {
			t.Fatalf("ref completed %v, restored %v", refDone, restDone)
		}
	}
	// Restoring into a used scheduler is rejected.
	if err := r2.RestoreState(snap); err == nil {
		t.Fatal("RestoreState on a used scheduler succeeded")
	}
}

func TestS3StateSnapshotInFlightFails(t *testing.T) {
	s := oneFile(t, makePlan(t, 12, 3))
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextRound(0); !ok {
		t.Fatal("no round")
	}
	if _, err := s.StateSnapshot(); err == nil {
		t.Fatal("snapshot with round in flight succeeded")
	}
}

func TestMultiFileStateSnapshotRoundtrip(t *testing.T) {
	mk := func() *MultiFile {
		plans := []*dfs.SegmentPlan{
			makeNamedPlan(t, "corpus", 12, 3),   // 4 segments
			makeNamedPlan(t, "lineitem", 12, 3), // 4 segments
		}
		m, err := NewMultiFile(plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := mk()
	for i, f := range []string{"corpus", "corpus", "lineitem"} {
		if err := ref.Submit(fileJob(i+1, f, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Advance a few rounds so cursors and the rotation pointer move.
	step(t, ref)
	step(t, ref)
	step(t, ref)

	snap, err := ref.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "s3-multifile" || len(snap.Queues) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := len(snap.Jobs()); got != 3 {
		t.Fatalf("snapshot holds %d jobs, want 3", got)
	}

	rest := mk()
	if err := rest.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	// A restored job id is registered while the job is live:
	// resubmitting it is a dup.
	if err := rest.Submit(fileJob(1, "corpus", 0), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("restored job id resubmitted: %v, want ErrDuplicateJob", err)
	}
	// Both finish the workload with identical round/completion order.
	var refSeq, restSeq []scheduler.JobID
	for ref.PendingJobs() > 0 {
		refSeq = append(refSeq, step(t, ref)...)
	}
	for rest.PendingJobs() > 0 {
		restSeq = append(restSeq, step(t, rest)...)
	}
	if len(refSeq) != len(restSeq) {
		t.Fatalf("ref %v restored %v", refSeq, restSeq)
	}
	for i := range refSeq {
		if refSeq[i] != restSeq[i] {
			t.Fatalf("ref %v restored %v", refSeq, restSeq)
		}
	}
}

func TestMultiFileRestoreRejectsMismatch(t *testing.T) {
	plans := []*dfs.SegmentPlan{makeNamedPlan(t, "corpus", 12, 3)}
	m, err := NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(scheduler.Snapshot{Scheme: "fifo"}); err == nil {
		t.Fatal("wrong scheme accepted")
	}
	if err := m.RestoreState(scheduler.Snapshot{
		Scheme: "s3-multifile",
		Queues: []scheduler.QueueSnapshot{{File: "nosuch", Segments: 4}},
	}); err == nil {
		t.Fatal("unregistered file accepted")
	}
	if err := m.RestoreState(scheduler.Snapshot{
		Scheme: "s3-multifile",
		Queues: []scheduler.QueueSnapshot{{File: "corpus", Segments: 99}},
	}); err == nil {
		t.Fatal("segment-count mismatch accepted")
	}
}
