package core

import (
	"fmt"

	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// Job Queue Manager snapshot/restore. The JQM's entire state is a
// cursor plus per-job (start segment, remaining sub-jobs) — small
// enough to persist after every round, so a restarted master resumes
// scheduling exactly where the old one stopped. Sub-jobs are
// idempotent units: re-running the round that was in flight during a
// crash re-scans one segment, nothing more.
//
// The snapshot types live in the scheduler package
// (scheduler.Snapshottable), so the journal and the runtime engine
// persist scheduler state without importing a concrete scheme.

// Snapshot captures the scheduler's state. It fails while a round is
// in flight: snapshot after RoundDone, when the state is consistent.
func (s *S3) Snapshot() (scheduler.QueueSnapshot, error) {
	if s.inFlight {
		return scheduler.QueueSnapshot{}, fmt.Errorf("core: cannot snapshot with a round in flight")
	}
	snap := scheduler.QueueSnapshot{
		File:     s.plan.File().Name,
		Segments: s.plan.NumSegments(),
		Cursor:   s.cursor,
	}
	for _, js := range s.active {
		snap.Jobs = append(snap.Jobs, scheduler.JobSnapshot{
			Meta:         js.Meta,
			StartSegment: js.StartSegment,
			Remaining:    js.Remaining,
			SubmittedAt:  js.SubmittedAt,
		})
	}
	return snap, nil
}

// restoreQueue loads a queue snapshot into a fresh scheduler.
func (s *S3) restoreQueue(snap scheduler.QueueSnapshot) error {
	plan := s.plan
	if plan.File().Name != snap.File {
		return fmt.Errorf("core: snapshot is for file %q, plan is for %q", snap.File, plan.File().Name)
	}
	if plan.NumSegments() != snap.Segments {
		return fmt.Errorf("core: snapshot has %d segments, plan has %d", snap.Segments, plan.NumSegments())
	}
	if snap.Cursor < 0 || snap.Cursor >= plan.NumSegments() {
		return fmt.Errorf("core: snapshot cursor %d out of range [0,%d)", snap.Cursor, plan.NumSegments())
	}
	s.cursor = snap.Cursor
	for _, js := range snap.Jobs {
		if js.Remaining < 1 || js.Remaining > plan.NumSegments() {
			return fmt.Errorf("core: job %d remaining %d out of range [1,%d]", js.Meta.ID, js.Remaining, plan.NumSegments())
		}
		if js.StartSegment < 0 || js.StartSegment >= plan.NumSegments() {
			return fmt.Errorf("core: job %d start segment %d out of range", js.Meta.ID, js.StartSegment)
		}
		if js.Meta.File != snap.File {
			return fmt.Errorf("core: job %d reads %q, queue is for %q", js.Meta.ID, js.Meta.File, snap.File)
		}
		// Algorithm 1's invariant: the job still needs the cursor
		// segment. A job that does not would rescan one segment and
		// skip another.
		if k := plan.NumSegments(); (js.StartSegment+k-js.Remaining)%k != snap.Cursor {
			return fmt.Errorf("core: job %d (start %d, %d of %d sub-jobs left) does not need cursor segment %d", js.Meta.ID, js.StartSegment, js.Remaining, k, snap.Cursor)
		}
		if s.seen[js.Meta.ID] {
			return fmt.Errorf("core: snapshot repeats job %d", js.Meta.ID)
		}
		s.seen[js.Meta.ID] = true
		s.active = append(s.active, &JobState{
			Meta:         js.Meta.Normalized(),
			StartSegment: js.StartSegment,
			Remaining:    js.Remaining,
			SubmittedAt:  js.SubmittedAt,
		})
	}
	s.log.Addf(0, trace.BatchAdjusted, -1, snap.Cursor, "restored %d job(s) at cursor %d", len(snap.Jobs), snap.Cursor)
	return nil
}
