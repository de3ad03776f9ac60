package journal

import "s3sched/internal/scheduler"

// MasterState is the fold of a journal's records: everything a booting
// master needs to resume. ReduceEntries builds it; the recovery glue
// in cmd/s3cluster turns it back into live scheduler/master/admission
// state.
type MasterState struct {
	// Admitted maps every admitted job to its admission record;
	// Order preserves admission order (resubmission re-admits in the
	// original order so ids and scheduling stay deterministic).
	Admitted map[scheduler.JobID]JobAdmittedRecord
	Order    []scheduler.JobID
	// Done and Failed are the settled jobs.
	Done   map[scheduler.JobID]JobEndRecord
	Failed map[scheduler.JobID]JobEndRecord
	// Results holds completed jobs' newest job-result records.
	Results map[scheduler.JobID]JobResultRecord
	// Materialized maps a producer stage to its derived-file record:
	// the crashed run installed this output cluster-wide, so recovery
	// must re-install it before resuming anything that scans it.
	Materialized map[scheduler.JobID]StageMaterializedRecord
	// Epoch is the stash epoch the journal's first master recorded, zero
	// in a journal older than the record.
	Epoch int64
	// Snapshot is the most recent scheduler snapshot (round commit or
	// checkpoint), nil when none was recorded.
	Snapshot *scheduler.Snapshot
	// Requeues is the consecutive-requeue count at the snapshot.
	Requeues int
	// Recoveries counts completed recoveries recorded in the log.
	Recoveries int
	// MaxID is the highest job id ever admitted (id allocation resumes
	// past it).
	MaxID scheduler.JobID
}

// InSnapshot returns the job's entry in the latest snapshot, if it has
// one — i.e. the scheduler can resume it mid-pass instead of restarting
// it.
func (s *MasterState) InSnapshot(id scheduler.JobID) (scheduler.JobSnapshot, bool) {
	if s.Snapshot == nil {
		return scheduler.JobSnapshot{}, false
	}
	for _, js := range s.Snapshot.Jobs() {
		if js.Meta.ID == id {
			return js, true
		}
	}
	return scheduler.JobSnapshot{}, false
}

// ReduceEntries folds replayed entries into a MasterState. Unknown
// kinds are ignored (forward compatibility); a known kind with an
// undecodable payload is an error — it passed the CRC, so it is a
// writer bug, not disk damage.
func ReduceEntries(entries []Entry) (*MasterState, error) {
	st := &MasterState{
		Admitted:     make(map[scheduler.JobID]JobAdmittedRecord),
		Done:         make(map[scheduler.JobID]JobEndRecord),
		Failed:       make(map[scheduler.JobID]JobEndRecord),
		Results:      make(map[scheduler.JobID]JobResultRecord),
		Materialized: make(map[scheduler.JobID]StageMaterializedRecord),
	}
	for _, e := range entries {
		switch e.Kind {
		case KindJobAdmitted:
			var rec JobAdmittedRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			if _, dup := st.Admitted[rec.ID]; !dup {
				st.Order = append(st.Order, rec.ID)
			}
			st.Admitted[rec.ID] = rec
			if rec.ID > st.MaxID {
				st.MaxID = rec.ID
			}
		case KindMasterEpoch:
			var rec MasterEpochRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			if st.Epoch == 0 {
				st.Epoch = rec.Epoch
			}
		case KindJobResult:
			var rec JobResultRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			st.Results[rec.Job] = rec
		case KindStageMaterialized:
			var rec StageMaterializedRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			st.Materialized[rec.Job] = rec
		case KindRoundCommitted:
			var rec RoundCommittedRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			if rec.Snapshot != nil {
				st.Snapshot = rec.Snapshot
				st.Requeues = rec.Requeues
			}
		case KindCheckpoint:
			var rec CheckpointRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			if rec.Snapshot != nil {
				st.Snapshot = rec.Snapshot
				st.Requeues = rec.Requeues
			}
		case KindJobDone:
			var rec JobEndRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			st.Done[rec.Job] = rec
		case KindJobFailed:
			var rec JobEndRecord
			if err := decode(e, &rec); err != nil {
				return nil, err
			}
			st.Failed[rec.Job] = rec
		case KindRecovered:
			st.Recoveries++
		}
	}
	return st, nil
}
