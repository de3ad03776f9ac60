package runtime

import (
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// The sim executor implements CacheStatsSource: runs fold its warm-set
// accounting like the deployed master's (TestEngineCacheTelemetry).
func TestSimCacheStatsFolded(t *testing.T) {
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("input", 8, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	exec := sim.NewExecutor(sim.NewCluster(4, 1), store, telemetryModel)
	if err := exec.EnableCachePolicy(2*64<<20, 0.1, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	arrivals := []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: vclock.Time(3)},
	}
	res, err := RunTrace(core.New(plan, nil), exec, arrivals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cs := res.Cache; cs.Misses == 0 {
		t.Fatalf("collector cache stats = %+v, want sim misses folded", cs)
	}
}
