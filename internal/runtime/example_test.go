package runtime_test

import (
	"fmt"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// ExampleRunTrace reproduces the paper's Example 3 (§III): two 100-second
// jobs, the second arriving 20 seconds in, scheduled by S^3 — TET 120,
// ART 100.
func ExampleRunTrace() {
	store := dfs.MustStore(1, 1)
	f, _ := store.AddMetaFile("input", 10, 64<<20)
	plan, _ := dfs.PlanSegments(f, 1) // 10 segments

	// Every segment round takes 10 virtual seconds.
	exec := runtime.ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) {
		return 10, nil
	})
	res, _ := runtime.RunTrace(core.New(plan, nil), exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: 20},
	}, runtime.Options{})

	tet, _ := metrics.TET(res.Jobs)
	art, _ := metrics.ART(res.Jobs)
	fmt.Printf("TET %v  ART %v  rounds %d\n", tet, art, res.Rounds)
	// Output:
	// TET 120.000s  ART 100.000s  rounds 12
}
