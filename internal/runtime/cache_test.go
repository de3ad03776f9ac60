package runtime

import (
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// End-to-end cache telemetry: an engine run with a store cache must
// fold hit/miss counts into the run's Collector and export them through
// the registry instruments.
func TestEngineCacheTelemetry(t *testing.T) {
	store, plan, exec, metas := stagedSetup(t, 8, 4, 2)
	if _, err := store.EnableCachePolicy(1<<20, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	arrivals := []Arrival{
		{Job: metas[0], At: 0},
		{Job: metas[1], At: 1}, // staggered: job 2 wraps and re-reads
	}
	res, err := RunTrace(core.New(plan, nil), exec, arrivals, Options{Metrics: metrics.NewRunMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Metrics.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("collector cache stats = %+v, want activity folded from the store", cs)
	}
	prom := promText(t, reg)
	for _, want := range []string{"s3_cache_hits_total", "s3_cache_misses_total", "s3_cache_hit_ratio"} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus export missing %s", want)
		}
	}
}

// The sim executor implements CacheStatsSource too: runs fold its
// warm-set accounting the same way.
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
	if cs := res.Metrics.CacheStats(); cs.Misses == 0 {
		t.Fatalf("collector cache stats = %+v, want sim misses folded", cs)
	}
}
