// DAG-stage materialization for the cluster daemon: when a finished
// job has dependents, its reduce output becomes a real replicated file
// — written into the master's planning store, installed on every live
// worker over RPC, journaled, and registered with the scheduler so the
// dependents' scans join the circular pass like any other jobs'.
package main

import (
	"fmt"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// materializeStage turns job id's committed reduce output into the
// derived file its consumers scan. Steps, in crash-safe order:
//
//  1. fetch the output from the workers that keep it, journal it as a
//     job-result that carries the records, and serialize it into the
//     planning store (idempotent: a file already present is reused);
//  2. push the blocks to every live worker (InstallFile is idempotent
//     worker-side; a worker registering later gets the file replayed
//     during its handshake);
//  3. journal a stage-materialized record so a restart re-installs the
//     file before resuming consumers;
//  4. register the segment plan with the scheduler — width says how many
//     blocks a segment of the file holds — so consumers can be submitted
//     against the new file.
//
// It runs on the engine goroutine between rounds (the LiveSource calls
// it from JobFinished or Pop): AddPlan is refused while a map is in
// flight.
func materializeStage(master *remote.Master, sched *core.MultiFile, planStore *dfs.Store, jnl *journal.Journal, width func(file string, blocks int) (int, error), id scheduler.JobID) error {
	name := workload.DerivedFileName(id)
	file, err := planStore.File(name)
	if err != nil {
		out, err := master.JobOutput(id)
		if err != nil {
			return fmt.Errorf("output of job %d to materialize: %w", id, err)
		}
		if jnl != nil { // recovery redoes this before any worker has registered: it needs the records
			if err := jnl.AppendRecord(journal.KindJobResult, journal.JobResultRecord{Job: id, Output: out}); err != nil {
				return fmt.Errorf("journaling the output of job %d: %w", id, err)
			}
		}
		file, err = mapreduce.StoreResult(planStore, name, *blockSize, &mapreduce.Result{Output: out})
		if err != nil {
			return fmt.Errorf("storing %s: %w", name, err)
		}
	}
	if err := master.InstallStored(planStore, name); err != nil {
		return fmt.Errorf("installing %s: %w", name, err)
	}
	if jnl != nil {
		rec := journal.StageMaterializedRecord{Job: id, File: name, BlockSize: file.BlockSize, Blocks: file.NumBlocks}
		if err := jnl.AppendRecord(journal.KindStageMaterialized, rec); err != nil {
			return fmt.Errorf("journaling materialization of %s: %w", name, err)
		}
	}
	if _, registered := sched.Queue(name); registered {
		// The plan survived in-process (a consumer re-submission after
		// the producer re-materialized); nothing left to do.
		return nil
	}
	segBlocks, err := width(name, file.NumBlocks)
	if err != nil {
		return err
	}
	plan, err := dfs.PlanSegments(file, segBlocks)
	if err != nil {
		return err
	}
	return sched.AddPlan(plan, 1)
}
