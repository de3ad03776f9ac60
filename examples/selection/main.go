// Selection workload (paper §V-G): SQL-like selection jobs over a
// generated TPC-H lineitem table, executed on the real MapReduce
// engine through S^3. Each job selects rows below a different
// l_quantity threshold — the paper's "SELECT * FROM lineitem WHERE
// l_quantity < VAL" with VAL chosen for ~10% selectivity.
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
		blocks    = 24
		blockSize = 32 << 10
	)
	store := dfs.MustStore(nodes, 1)
	if _, err := workload.AddLineitemFile(store, "lineitem", blocks, blockSize, 7); err != nil {
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

	// Three selection jobs with different predicates: ~10%, ~20% and
	// ~50% selectivity over the uniform 1..50 quantity domain.
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
	exec := mapreduce.NewExecutor(engine, map[scheduler.JobID]mapreduce.JobSpec{
		1: workload.SelectionJob("qty<=5", "lineitem", 5),
		2: workload.SelectionJob("qty<=10", "lineitem", 10),
		3: workload.SelectionJob("qty<=25", "lineitem", 25),
	})
	exec.SetTimeScale(1e6)

	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "lineitem"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "lineitem"}, At: 1},
		{Job: scheduler.JobMeta{ID: 3, File: "lineitem"}, At: 2},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("lineitem: %d blocks x %d KiB; %d segments\n", blocks, blockSize>>10, plan.NumSegments())
	fmt.Printf("3 selection jobs via S^3: %d rounds, %d block scans (isolated: %d)\n\n",
		res.Rounds, store.Stats().BlockReads, 3*blocks)

	for id := scheduler.JobID(1); id <= 3; id++ {
		r, _ := exec.Result(id)
		in := r.Counters.Get(mapreduce.CounterMapInputRecords)
		out := int64(len(r.Output))
		fmt.Printf("%-9s selected %6d of %6d rows (%.1f%% selectivity)\n",
			r.Name, out, in, 100*float64(out)/float64(in))
	}
	fmt.Println("\nevery selected row satisfies its predicate; outputs are sorted by (orderkey, linenumber)")
}
