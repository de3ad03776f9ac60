package journal

import (
	"encoding/json"
	"fmt"

	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Record kinds, in rough lifecycle order. Unknown kinds are skipped on
// replay so an old binary can read a newer journal's prefix.
const (
	// KindJobAdmitted: a job was accepted by the admission layer. The
	// record is appended under the admission lock *before* POST /jobs
	// is acked, so an acked job is never lost.
	KindJobAdmitted = "job-admitted"
	// KindMasterEpoch: the stash epoch of the master that first opened
	// this journal. Every master recovering from it takes the epoch over,
	// so the jobs it resumes find their map output on the workers.
	KindMasterEpoch = "master-epoch"
	// KindShuffleCommitted: one segment's map output for one job, from
	// when the master merged the shuffle. Nothing writes the kind any
	// more and replay reads past it (an old journal's jobs resume with
	// their map output gone and have it mapped again); kind and record
	// stay for bench/perf's journal.encode_ms_per_mb probe, which builds one.
	KindShuffleCommitted = "shuffle-committed"
	// KindJobResult: a job's reduce phase completed and its output is final.
	KindJobResult = "job-result"
	// KindRoundCommitted: the engine retired a round; carries the
	// scheduler snapshot taken at the round boundary.
	KindRoundCommitted = "round-committed"
	// KindJobDone: the engine completed a job.
	KindJobDone = "job-done"
	// KindJobFailed: an older engine failed a job on its own code. Nothing
	// writes it now; a journal holding one still folds into Failed.
	KindJobFailed = "job-failed"
	// KindStageMaterialized: a finished DAG stage's reduce output was
	// written into the cluster as a derived file and its segment plan
	// registered, making dependent stages runnable. Appended before the
	// dependents are released, so recovery knows which derived files
	// the crashed run's scheduler state may reference.
	KindStageMaterialized = "stage-materialized"
	// KindCheckpoint: a graceful shutdown (SIGTERM) wrote a final
	// scheduler snapshot before draining.
	KindCheckpoint = "checkpoint"
	// KindRecovered: a booting master finished replaying this journal
	// and resumed. Counting these yields recoveries-to-date.
	KindRecovered = "recovered"
)

// JobAdmittedRecord persists everything needed to re-register and, if
// necessary, resubmit a job: the scheduler meta and the executable
// JobRef fields (factory registry key, param, reduce width).
type JobAdmittedRecord struct {
	ID        scheduler.JobID   `json:"id"`
	Name      string            `json:"name"`
	Factory   string            `json:"factory"`
	Param     string            `json:"param,omitempty"`
	NumReduce int               `json:"numReduce"`
	Meta      scheduler.JobMeta `json:"meta"`
	// DependsOn records the job's DAG dependencies: recovery must hold
	// the job until they settle (or release it if they already have).
	DependsOn []scheduler.JobID `json:"dependsOn,omitempty"`
}

// MasterEpochRecord is the payload of master-epoch.
type MasterEpochRecord struct {
	Epoch int64 `json:"epoch"`
}

// ShuffleCommittedRecord persisted one segment's merged map output for
// one job: Parts[p] is the slice appended to reduce partition p.
type ShuffleCommittedRecord struct {
	Job     scheduler.JobID  `json:"job"`
	Segment int              `json:"segment"`
	File    string           `json:"file,omitempty"`
	Parts   [][]mapreduce.KV `json:"parts"`
}

// JobResultRecord persists a completed job's result, in one of two shapes.
// Parts: per reduce partition, the receipt of the output frame and the
// worker keeping it; the output is recomputable from File, which the job
// scanned. Output: the merged records themselves — what was written before
// receipts existed, and what a DAG producer gets when its output becomes a
// derived file, which recovery rebuilds with no worker to ask.
type JobResultRecord struct {
	Job    scheduler.JobID `json:"job"`
	File   string          `json:"file,omitempty"`
	Parts  []ResultPart    `json:"parts,omitempty"`
	Output []mapreduce.KV  `json:"output,omitempty"`
}

// ResultPart is one reduced partition's receipt: the frame's record count,
// length and CRC-32C, and the id of the worker that kept it.
type ResultPart struct {
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	Sum     uint32 `json:"sum"`
	Holder  string `json:"holder"`
}

// StageMaterializedRecord marks a producer stage's output as installed
// cluster-wide under File. The bytes themselves are not journaled —
// they re-derive deterministically from the job-result record — only
// the geometry the derived file was cut into.
type StageMaterializedRecord struct {
	Job       scheduler.JobID `json:"job"`
	File      string          `json:"file"`
	BlockSize int64           `json:"blockSize"`
	Blocks    int             `json:"blocks"`
}

// RoundCommittedRecord marks a retired round and carries the
// scheduler state at the boundary. A snapshot that fails fails the run,
// so Snapshot is nil only for a scheduler that cannot snapshot or in a
// record an older build wrote; recovery then falls back to the latest
// earlier snapshot or to resubmission.
type RoundCommittedRecord struct {
	Segment  int                 `json:"segment"`
	Jobs     []scheduler.JobID   `json:"jobs"`
	At       vclock.Time         `json:"at"`
	Requeues int                 `json:"requeues,omitempty"`
	Snapshot *scheduler.Snapshot `json:"snapshot,omitempty"`
}

// JobEndRecord is the payload of both job-done and job-failed.
type JobEndRecord struct {
	Job scheduler.JobID `json:"job"`
	At  vclock.Time     `json:"at"`
}

// CheckpointRecord is the graceful-shutdown snapshot.
type CheckpointRecord struct {
	At       vclock.Time         `json:"at"`
	Requeues int                 `json:"requeues,omitempty"`
	Snapshot *scheduler.Snapshot `json:"snapshot,omitempty"`
}

// RecoveredRecord notes one completed recovery.
type RecoveredRecord struct {
	Resumed   int `json:"resumed"`
	Restarted int `json:"restarted"`
}

// decode unmarshals an entry's payload into out with a kind-tagged
// error.
func decode(e Entry, out any) error {
	if err := json.Unmarshal(e.Data, out); err != nil {
		return fmt.Errorf("journal: decoding %s payload: %w", e.Kind, err)
	}
	return nil
}
