// Aggregation pipeline (paper §V-G): a TPC-H Q1-style group-by-sum
// over lineitem runs through S^3 with per-round partial aggregation —
// each sub-job's partial sums are folded as rounds complete, so the
// carried state stays tiny and the final reduce starts from
// near-finished values. The aggregated result is then written back to
// the store and a second, chained job scans it.
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
	const (
		nodes     = 4
		blocks    = 16
		blockSize = 16 << 10
	)
	store := dfs.MustStore(nodes, 1)
	if _, err := workload.AddLineitemFile(store, "lineitem", blocks, blockSize, 11); err != nil {
		log.Fatal(err)
	}
	f, err := store.File("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: Q1-style aggregation via S^3 sub-jobs with partial
	// aggregation between rounds.
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
	exec := mapreduce.NewExecutor(engine, map[scheduler.JobID]mapreduce.JobSpec{
		1: workload.AggregationJob("q1", "lineitem", 2),
	})
	exec.EnablePartialAggregation(workload.SumReducer{})
	exec.SetTimeScale(1e6)

	res, err := runtime.RunTrace(core.New(plan, nil), exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "lineitem"}, At: 0},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	q1 := exec.Results()[1]
	fmt.Printf("Q1 aggregation over %d blocks in %d sub-job rounds:\n", blocks, res.Rounds)
	for _, kv := range q1.Output {
		fmt.Printf("  returnflag|linestatus %s  sum(quantity) = %s\n", kv.Key, kv.Value)
	}
	fmt.Printf("reduce input records: %d (partial aggregation folds each round; without it this equals every matching row)\n\n",
		q1.Counters.Get(mapreduce.CounterReduceInputRecords))

	// Stage 2: chain a job over the stored aggregation output.
	if _, err := mapreduce.StoreResult(store, "q1-out", 4<<10, q1); err != nil {
		log.Fatal(err)
	}
	filter := mapreduce.JobSpec{
		Name: "groups-over-threshold",
		File: "q1-out",
		Mapper: mapreduce.KVLineMapper{Each: func(key, value string, emit mapreduce.Emit) error {
			emit(mapreduce.KV{Key: key, Value: value})
			return nil
		}},
	}
	chained, err := engine.RunJob(filter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chained job re-read %d group rows from the stored output\n", len(chained.Output))
}
