// Aggregation pipeline (paper §V-G): a TPC-H Q1-style group-by-sum
// over lineitem runs through S^3 on an in-process cluster (the master
// and workers s3cluster deploys). Each map task's combiner folds its
// block into one partial sum per group, so the reduce starts from
// near-finished values. The aggregated result is then materialized as
// a file, installed on every worker, and a second, chained job scans it.
package main

import (
	"fmt"
	"log"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

func main() {
	const (
		nodes     = 4
		blocks    = 16
		blockSize = 16 << 10
	)
	stores := make([]*dfs.Store, nodes)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddLineitemFile(stores[i], "lineitem", blocks, blockSize, 11); err != nil {
			log.Fatal(err)
		}
	}
	f, err := stores[0].File("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		log.Fatal(err)
	}

	// The chained job's program joins the standard factories: every
	// worker must be able to build it.
	reg := remote.NewStandardRegistry()
	reg.Register("group-rows", func(string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		return mapreduce.KVLineMapper{Each: func(key, value string, emit mapreduce.Emit) error {
			emit(mapreduce.KV{Key: key, Value: value})
			return nil
		}}, nil, nil, nil
	})
	cluster, err := remote.StartLocal(map[scheduler.JobID]remote.JobRef{
		1: {Name: "q1", Factory: "aggregation", NumReduce: 2},
	}, reg, stores...)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Stage 1: Q1-style aggregation via S^3 sub-jobs.
	res, err := runtime.RunTrace(core.New(plan, nil), cluster, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "lineitem"}, At: 0},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	q1, err := cluster.JobOutput(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1 aggregation over %d blocks in %d sub-job rounds:\n", blocks, res.Rounds)
	for _, kv := range q1 {
		fmt.Printf("  returnflag|linestatus %s  sum(quantity) = %s\n", kv.Key, kv.Value)
	}
	fmt.Println()

	// Stage 2: the output becomes a file — written where the master plans,
	// installed on every worker — and a chained job scans it in one round.
	planStore := dfs.MustStore(nodes, 1)
	out, err := mapreduce.StoreResult(planStore, "q1-out", 4<<10, &mapreduce.Result{Output: q1})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.InstallStored(planStore, "q1-out"); err != nil {
		log.Fatal(err)
	}
	if err := cluster.RegisterJob(2, remote.JobRef{Name: "groups-over-threshold", Factory: "group-rows"}); err != nil {
		log.Fatal(err)
	}
	round := scheduler.Round{Blocks: out.Blocks(), Jobs: []scheduler.JobMeta{{ID: 2, File: "q1-out"}}, Completes: []scheduler.JobID{2}}
	if _, err := cluster.ExecRound(round); err != nil {
		log.Fatal(err)
	}
	chained, err := cluster.JobOutput(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chained job re-read %d group rows from the stored output\n", len(chained))
}
