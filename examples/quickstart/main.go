// Quickstart: two wordcount jobs over one file, the second submitted
// while the first is mid-scan. S^3 splits both into per-segment
// sub-jobs, aligns them, and shares every remaining scan — this
// program shows the batching live and proves the I/O saving with the
// store's scan ledger.
package main

import (
	"fmt"
	"log"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

func main() {
	// 1. A 4-node cluster over a 16-block generated text file.
	store := dfs.MustStore(4, 1)
	if _, err := workload.AddTextFile(store, "books", 16, 8<<10, 1); err != nil {
		log.Fatal(err)
	}
	f, err := store.File("books")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Segments sized to the cluster's concurrent map slots: each
	// segment is exactly one round of cluster work.
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d blocks -> %d segments of %d\n", f.NumBlocks, plan.NumSegments(), plan.BlocksPerSegment())

	// 3. Two different jobs over the same input: count words starting
	// with "t", and words starting with "a".
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
	exec := mapreduce.NewExecutor(engine, map[scheduler.JobID]mapreduce.JobSpec{
		1: workload.WordCountJob("t-words", "books", "t", 2),
		2: workload.WordCountJob("a-words", "books", "a", 2),
	})
	exec.SetTimeScale(1e6) // stretch wall time so arrival 2 lands mid-run

	// 4. Drive them through S^3: job 2 arrives while job 1's first
	// sub-job is running, and still shares every later scan.
	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "books"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "books"}, At: 1},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The proof: far fewer physical scans than two isolated jobs.
	fmt.Printf("rounds: %d, block scans: %d (isolated jobs would scan %d)\n",
		res.Rounds, store.Stats().BlockReads, 2*f.NumBlocks)
	for id, r := range exec.Results() {
		fmt.Printf("job %d (%s): %d distinct words counted\n", id, r.Name, len(r.Output))
	}
}
