// Package scheduler defines the job-scheduling abstraction shared by
// every scheme in the paper's evaluation, and what is independent of
// the scheme: the snapshot types, the multi-file Arbiter, and the Fair
// baseline, which interleaves passes. S^3 and every scheme that is its
// queue behind an admission gate — FIFO (Hadoop default), MRShare-style
// batching and the ablations — live in internal/core.
//
// A Scheduler turns submitted jobs into a serial stream of Rounds. A
// Round is one unit of cluster work: scan the listed blocks once and
// feed every listed job. This mirrors the paper's full-utilization
// execution model: the cluster runs one (possibly merged) wave of map
// tasks at a time, and the scheduler decides what the next wave is.
package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/vclock"
)

// JobID identifies a submitted job within one experiment run.
type JobID int

// JobMeta is the scheduler-visible description of a job. The actual
// map/reduce functions live with the executor; schedulers only need
// identity, input file and relative cost.
type JobMeta struct {
	ID   JobID
	Name string
	File string
	// Weight scales the job's per-block map cost relative to the
	// workload baseline (1.0 = paper's normal wordcount; the heavy
	// workload uses a larger value).
	Weight float64
	// ReduceWeight scales the job's reduce-phase cost (the heavy
	// workload produces 200x reduce output).
	ReduceWeight float64
	// Priority orders jobs when a scheduler must arbitrate between
	// queues (larger is more urgent; 0 is normal). Scan-sharing inside
	// one file's queue is unaffected — every active job shares every
	// round regardless of priority. This implements the "job
	// priorities" scheduling-policy extension of §VI.
	Priority int
}

// Normalized returns meta with zero weights defaulted to 1.
func (m JobMeta) Normalized() JobMeta {
	if m.Weight == 0 {
		m.Weight = 1
	}
	if m.ReduceWeight == 0 {
		m.ReduceWeight = 1
	}
	return m
}

// Round is one wave of cluster work: one shared scan of Blocks feeding
// every job in Jobs.
type Round struct {
	// Segment is the segment index this round scans, or -1 when the
	// round is not segment-aligned.
	Segment int
	// Blocks are scanned exactly once each.
	Blocks []dfs.BlockID
	// Jobs consume the scan; len(Jobs) is the batch size.
	Jobs []JobMeta
	// Completes lists the jobs whose final map work is in this round;
	// their reduce phase runs at the end of the round.
	Completes []JobID
	// FreshJobs counts the MapReduce job submissions this round
	// incurs. Each S^3 round is one freshly submitted merged sub-job;
	// FIFO and MRShare submit once per job/batch, so only their first
	// round carries the setup cost. This asymmetry — S^3 pays job
	// initialization per segment — is the "more sub-jobs initiated …
	// communication cost becomes a dominant factor" effect of §V-D.
	FreshJobs int
	// Tagged marks rounds executed as an MRShare merged meta-job:
	// every record is tagged with the ids of the jobs it belongs to
	// and demultiplexed in the reduce phase (Nykiel et al.). The
	// tagging pipeline costs extra per job; S^3's partial job
	// initialization keeps per-job pipelines separate and avoids it.
	Tagged bool
	// SubJobReduce marks rounds whose batch members each run their own
	// reduce phase at the end of the round — S^3 sub-jobs are complete
	// MapReduce jobs (§IV-D3), producing the per-round partial results
	// §V-G discusses collecting. FIFO and MRShare jobs instead reduce
	// once, when they complete, amortizing the reduce-phase setup.
	SubJobReduce bool
	// Nodes restricts the round to the listed nodes (nil = the whole
	// cluster). S^3's periodic slot checking (§IV-D1) excludes slow
	// nodes from the next round by setting this.
	Nodes []dfs.NodeID
}

// JobIDs returns the ids of the round's jobs.
func (r Round) JobIDs() []JobID {
	out := make([]JobID, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.ID
	}
	return out
}

// Scheduler is the interface every scheduling scheme implements.
//
// Protocol: rounds are strictly serial. After NextRound returns a
// round, RoundDone must be called for it before the next NextRound.
// Submit may be called at any point — in particular while a round is
// in flight, which is exactly the case S^3's dynamic sub-job
// adjustment exploits.
type Scheduler interface {
	// Name identifies the scheme ("fifo", "mrshare", "s3").
	Name() string
	// Submit registers a job that arrived at time at.
	Submit(job JobMeta, at vclock.Time) error
	// NextRound returns the next wave of work, or ok=false when the
	// scheduler has nothing runnable right now (idle, or waiting for
	// more arrivals to form a batch).
	NextRound(now vclock.Time) (r Round, ok bool)
	// RoundDone reports the round returned by the last NextRound as
	// complete and returns the jobs that finished with it.
	RoundDone(r Round, now vclock.Time) []JobID
	// PendingJobs reports how many submitted jobs have not completed.
	PendingJobs() int
}

// ErrDuplicateJob is wrapped by Submit when a job id is reused. A
// scheduler refuses the id of a live job — submitted, held back or
// active — and forgets a job once RoundDone reports it done; the id of a
// job that has ended is refused by the admission queue
// (runtime.LiveSource), which keeps every job's record.
var ErrDuplicateJob = fmt.Errorf("scheduler: duplicate job id")

// ErrWrongFile is wrapped by Submit when a job's input file does not
// match the segment plan the scheduler was built for. The paper's
// context is jobs sharing one input file (§III-A); multi-file support
// is layered on top by Arbiter, a queue per file.
var ErrWrongFile = fmt.Errorf("scheduler: job input file does not match plan")
