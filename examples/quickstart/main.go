// Quickstart: two wordcount jobs over one file, the second submitted
// while the first is mid-scan. S^3 splits both into per-segment
// sub-jobs, aligns them, and shares every remaining scan — this
// program shows the batching live on an in-process cluster (the
// master and workers s3cluster deploys) and proves the I/O saving with
// the workers' scan ledgers.
package main

import (
	"fmt"
	"log"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

func main() {
	// 1. Four workers, each generating its copy of a 16-block text file:
	// the blocks never travel, only task descriptions do.
	stores := make([]*dfs.Store, 4)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "books", 16, 8<<10, 1); err != nil {
			log.Fatal(err)
		}
	}
	f, err := stores[0].File("books")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Segments one block per worker: each segment is exactly one
	// round of cluster work.
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d blocks -> %d segments of %d\n", f.NumBlocks, plan.NumSegments(), plan.BlocksPerSegment())

	// 3. Two different jobs over the same input: count words starting
	// with "t", and words starting with "a".
	jobs := map[scheduler.JobID]remote.JobRef{
		1: {Name: "t-words", Factory: "wordcount", Param: "t", NumReduce: 2},
		2: {Name: "a-words", Factory: "wordcount", Param: "a", NumReduce: 2},
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// 4. Drive them through S^3: job 2 arrives a microsecond in, while
	// job 1's first sub-job is running, and still shares every later scan.
	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, cluster, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "books"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "books"}, At: 1e-6},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The proof: far fewer physical scans than two isolated jobs.
	stats, err := cluster.WorkerStats()
	if err != nil {
		log.Fatal(err)
	}
	var scans int64
	for _, st := range stats {
		scans += st.BlockReads
	}
	fmt.Printf("rounds: %d, block scans: %d (isolated jobs would scan %d)\n", res.Rounds, scans, 2*f.NumBlocks)
	for _, id := range []scheduler.JobID{1, 2} {
		out, err := cluster.JobOutput(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d (%s): %d distinct words counted\n", id, jobs[id].Name, len(out))
	}
}
