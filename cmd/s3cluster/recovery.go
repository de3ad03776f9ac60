// Journal recovery glue: turns a replayed write-ahead journal back
// into live daemon state. The split of responsibilities mirrors the
// write path — the admission layer journals admissions, the master
// journals results, the engine journals round commits —
// so recovery walks the folded MasterState and hands each piece back
// to the layer that wrote it.
package main

import (
	"errors"
	"fmt"
	"os"

	"s3sched/internal/journal"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// journalCommits adapts the engine's CommitLog to journal records. The
// engine calls it synchronously at each commit point, so by the time a
// round's effects are observable the journal already holds them.
type journalCommits struct {
	j *journal.Journal
}

func (c *journalCommits) RoundCommitted(r scheduler.Round, now vclock.Time, snap *scheduler.Snapshot, requeues int) {
	c.append(journal.KindRoundCommitted, journal.RoundCommittedRecord{
		Segment:  r.Segment,
		Jobs:     r.JobIDs(),
		At:       now,
		Requeues: requeues,
		Snapshot: snap,
	})
}

func (c *journalCommits) JobDone(id scheduler.JobID, now vclock.Time) {
	c.append(journal.KindJobDone, journal.JobEndRecord{Job: id, At: now})
}

func (c *journalCommits) append(kind string, payload any) {
	if err := c.j.AppendRecord(kind, payload); err != nil {
		// Progress records refine recovery (resume mid-pass instead of
		// rerunning from admission); losing one degrades granularity but
		// never correctness, so a failed append must not kill the run.
		fmt.Fprintf(os.Stderr, "s3cluster: journal append %s: %v\n", kind, err)
	}
}

// recoveryReport summarizes what recoverFromJournal did.
type recoveryReport struct {
	// resumed jobs were restored mid-pass from the scheduler snapshot;
	// restarted jobs were resubmitted from their admission records;
	// settled jobs only had their terminal status re-published; refused
	// jobs were admitted by the binary that wrote the journal, and this
	// one fails them.
	resumed, restarted, settled, refused int
	state                                *journal.MasterState
}

// recoverFromJournal rebuilds daemon state from the folded journal st
// on a master already back on the journal's stash epoch: settled jobs
// get their status (and restored results) back, snapshotted jobs resume
// mid-pass over the map output the workers still hold, submitted when
// the snapshot says,
// and admitted-but-unsnapshotted jobs are resubmitted under their
// original ids — with their recorded dependencies, so a half-finished
// DAG re-forms: done producers seed the DAG's done set, waiting
// consumers hold again, and stage-materialized records re-install the
// derived files before the engine starts (remat rebuilds one; it must
// run before RestoreState, which needs every snapshot queue's file
// registered). A resumed job is adopted into the source as running,
// which is how the engine learns to resume it. Sets
// opts.InitialRequeues and appends a recovered record marking the
// journal as once-more-recovered.
func recoverFromJournal(
	jnl *journal.Journal,
	st *journal.MasterState,
	sched scheduler.Scheduler,
	master *remote.Master,
	adm *clusterAdmission,
	remat func(scheduler.JobID) error,
	opts *runtime.Options,
) (*recoveryReport, error) {
	rep := &recoveryReport{state: st}

	// resume collects the ids restored into the scheduler; the snapshot
	// is pruned to exactly this set before RestoreState, because the
	// snapshot may also carry jobs that settled after it was taken
	// (result committed, crash before the round-committed record) or
	// jobs this binary can no longer run.
	resume := make(map[scheduler.JobID]bool)

	for _, id := range st.Order {
		rec := st.Admitted[id]
		meta := rec.Meta
		meta.ID = id
		ref := remote.JobRef{Name: rec.Name, Factory: rec.Factory, Param: rec.Param, NumReduce: rec.NumReduce}

		end, done := st.Done[id]
		if result, hasResult := st.Results[id]; done || hasResult {
			// Settled and succeeded — or the result committed and the crash
			// beat the job-done record (end.At is then zero), which is
			// finished in every way that matters. Republish the result so
			// GET /jobs/<id>/output keeps serving across restarts: from the
			// workers its receipts name, or by recomputing.
			if err := master.RegisterJob(id, ref); err != nil {
				return nil, err
			}
			if hasResult {
				master.RestoreResult(result)
			}
			// A stage-materialized record means dependents scan this job's
			// output: rebuild the derived file now (from the restored
			// result), before any consumer is resubmitted and before
			// RestoreState needs its queue registered. Walking st.Order
			// keeps the registration order deterministic.
			_, wasMat := st.Materialized[id]
			if wasMat {
				if err := remat(id); err != nil {
					return nil, fmt.Errorf("re-materializing job %d output: %w", id, err)
				}
			}
			if err := adm.src.Adopt(meta, runtime.JobDone, 0, end.At, wasMat); err != nil {
				return nil, err
			}
			rep.settled++
			continue
		}
		if end, failed := st.Failed[id]; failed {
			if err := adm.src.Adopt(meta, runtime.JobFailed, 0, end.At, false); err != nil {
				return nil, err
			}
			rep.settled++
			continue
		}
		if err := adm.check(ref, meta, rec.DependsOn); err != nil {
			// The binary that wrote the journal admitted a job this one
			// refuses (workload.Job.Check): running it would fail the run.
			fmt.Fprintf(os.Stderr, "s3cluster: recovery: job %d: %v; marking failed\n", id, err)
			if err := adm.src.Adopt(meta, runtime.JobFailed, 0, 0, false); err != nil {
				return nil, err
			}
			rep.refused++
			continue
		}
		if js, snapped := st.InSnapshot(id); snapped {
			// Mid-pass resume: the scheduler snapshot knows the job's
			// cursor, and the workers hold the map output of the segments
			// behind it — or do not any more, and then the job's reduce
			// has those blocks mapped again. Its submission time is on this
			// master's clock when the journal has the epoch that clock
			// counts from (a later stamp is from another clock); without
			// one the job is measured from this boot.
			var at vclock.Time
			if st.Epoch != 0 {
				at = min(js.SubmittedAt, master.Clock().Now())
			}
			if err := master.RegisterJob(id, ref); err != nil {
				return nil, err
			}
			if err := adm.src.Adopt(meta, runtime.JobRunning, at, 0, false); err != nil {
				return nil, err
			}
			resume[id] = true
			rep.resumed++
			continue
		}
		// Admitted but never snapshotted (or the snapshot predates it):
		// resubmit through the normal admission path under the original
		// id, with its recorded dependencies — a consumer whose producer
		// is still pending holds again, one whose producer settled is
		// released exactly as a live submission would be. That
		// re-journals the admission, which is harmless — the fold is
		// last-writer-wins per id. A cascade-failed consumer left no
		// job-failed record (failing a held job is a status transition,
		// not a round commit): the graph dooms it again, and it comes
		// back failed.
		_, err := adm.submitStage(meta, ref, rec.DependsOn)
		if errors.Is(err, runtime.ErrDoomed) {
			if err := adm.src.Adopt(meta, runtime.JobFailed, 0, 0, false); err != nil {
				return nil, err
			}
			rep.settled++
			continue
		}
		if err != nil {
			return nil, err
		}
		rep.restarted++
	}

	if len(resume) > 0 {
		sn, ok := sched.(scheduler.Snapshottable)
		if !ok {
			return nil, fmt.Errorf("scheduler %s cannot restore a snapshot", sched.Name())
		}
		if err := sn.RestoreState(pruneSnapshot(*st.Snapshot, resume)); err != nil {
			return nil, err
		}
		opts.InitialRequeues = st.Requeues
	}

	if err := jnl.AppendRecord(journal.KindRecovered, journal.RecoveredRecord{
		Resumed:   rep.resumed,
		Restarted: rep.restarted,
	}); err != nil {
		return nil, err
	}
	return rep, nil
}

// planWidth is how many blocks a segment of file holds: the cluster's map
// slots, unless the journal's newest snapshot has a queue for the file. A
// queue restores only into a plan of as many segments as it was saved
// with, so the file then keeps that count — at slots if they still yield
// it, else at the narrowest width that does; a count no width yields for
// the file's blocks is an error. Which blocks lie behind a resumed job's
// cursor may shift with the width: its reduce has the ones it lacks redone.
func planWidth(file string, blocks, slots int, recorded *journal.MasterState) (int, error) {
	if recorded == nil || recorded.Snapshot == nil {
		return slots, nil
	}
	segments := func(width int) int { return (blocks + width - 1) / width }
	for _, q := range recorded.Snapshot.Queues {
		if q.File != file || segments(slots) == q.Segments {
			continue
		}
		width := segments(max(q.Segments, 1))
		if segments(width) != q.Segments {
			return 0, fmt.Errorf("the journal recorded %d segments for %q: no segment width cuts its %d blocks into that many", q.Segments, file, blocks)
		}
		return width, nil
	}
	return slots, nil
}

// pruneSnapshot filters a scheduler snapshot down to the jobs actually
// being resumed. Queues and cursors survive untouched — only job
// entries not in keep are dropped.
func pruneSnapshot(snap scheduler.Snapshot, keep map[scheduler.JobID]bool) scheduler.Snapshot {
	queues := make([]scheduler.QueueSnapshot, len(snap.Queues))
	for i, q := range snap.Queues {
		pq := q
		pq.Jobs = nil
		for _, js := range q.Jobs {
			if keep[js.Meta.ID] {
				pq.Jobs = append(pq.Jobs, js)
			}
		}
		queues[i] = pq
	}
	snap.Queues = queues
	return snap
}
