package runtime_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// The round loop over the deployed master and workers, booted in-process.

// wordcountCluster boots the master and two workers over a generated
// corpus of `blocks` blocks, caching cacheBytes each (none at 0), with n
// wordcount jobs registered, and plans perSegment blocks a segment.
func wordcountCluster(t *testing.T, blocks, perSegment, n int, cacheBytes int64) (*dfs.SegmentPlan, *remote.Local, []runtime.Arrival) {
	t.Helper()
	stores := make([]*dfs.Store, 2)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", blocks, 2048, 7); err != nil {
			t.Fatal(err)
		}
		if cacheBytes > 0 {
			if _, err := stores[i].EnableCachePolicy(cacheBytes, dfs.PolicyLRU); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := stores[0].File("corpus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(map[scheduler.JobID]remote.JobRef, n)
	var arrivals []runtime.Arrival
	for i, prefix := range workload.DistinctPrefixes(n) {
		id := scheduler.JobID(i + 1)
		jobs[id] = remote.JobRef{Name: "wc-" + prefix, Factory: "wordcount", Param: prefix, NumReduce: 2}
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}, At: vclock.Time(i)})
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return plan, cluster, arrivals
}

// End-to-end cache telemetry: a run on the deployed master and workers,
// whose stores cache, must fold their hit/miss counts into the run's
// Result and export them through the registry instruments.
func TestEngineCacheTelemetry(t *testing.T) {
	plan, cluster, arrivals := wordcountCluster(t, 8, 4, 2, 1<<20)
	arrivals[1].At = 1e-6 // staggered: job 2 wraps and re-reads
	reg := metrics.NewRegistry()
	res, err := runtime.RunTrace(core.New(plan, nil), cluster, arrivals, runtime.Options{Metrics: metrics.NewRunMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Cache
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("run cache stats = %+v, want activity folded from the workers' stores", cs)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"s3_cache_hits_total", "s3_cache_misses_total", "s3_cache_hit_ratio"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %s", want)
		}
	}
}

// TestEngineSimTelemetrySignalParity runs the deployed master and the
// simulator through the same telemetry plumbing and checks the two emit
// the same signals: an identical set of metric names (every HELP/TYPE
// line) and the same span vocabulary, less the stage split the master,
// which runs a round whole, does not make.
func TestEngineSimTelemetrySignalParity(t *testing.T) {
	run := func(plan *dfs.SegmentPlan, exec runtime.Executor, arrivals []runtime.Arrival) (*trace.Log, *metrics.Registry) {
		t.Helper()
		log, reg := trace.MustNew(4096), metrics.NewRegistry()
		// The scheduler log stays nil: the comparison is the run loop's
		// signal set, which must not depend on the executor.
		if _, err := runtime.RunTrace(core.New(plan, nil), exec, arrivals, runtime.Options{Spans: log, Metrics: metrics.NewRunMetrics(reg)}); err != nil {
			t.Fatal(err)
		}
		return log, reg
	}
	plan, cluster, arrivals := wordcountCluster(t, 12, 3, 3, 0)
	engLog, engReg := run(plan, cluster, arrivals)

	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("corpus", 12, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	simPlan, err := dfs.PlanSegments(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	simLog, simReg := run(simPlan, sim.NewExecutor(sim.NewCluster(4, 1), store, sim.CostModel{ScanMBps: 40, ReducePerRound: 0.6}), arrivals)

	declared := func(reg *metrics.Registry) []string {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "# ") {
				out = append(out, line)
			}
		}
		return out
	}
	if simDecl, engDecl := declared(simReg), declared(engReg); fmt.Sprint(simDecl) != fmt.Sprint(engDecl) {
		t.Errorf("metric declarations differ:\nsim: %v\nengine: %v", simDecl, engDecl)
	}
	names := func(log *trace.Log, except ...string) []string {
		var out []string
		for _, s := range log.Spans() {
			if !slices.Contains(out, s.Name) && !slices.Contains(except, s.Name) {
				out = append(out, s.Name)
			}
		}
		slices.Sort(out)
		return out
	}
	simNames, engNames := names(simLog, "scan-stage", "reduce-stage"), names(engLog)
	if want := []string{"round", "run", "subjob"}; !slices.Equal(engNames, want) || !slices.Equal(simNames, want) {
		t.Errorf("span vocabularies: engine %v, sim less its stages %v; want both %v", engNames, simNames, want)
	}
}
