package experiments

import (
	"fmt"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Ablations quantify the design choices DESIGN.md §5 calls out:
// X1 periodic slot checking under heterogeneity (§IV-D1),
// X2 dynamic sub-job adjustment (§IV-D2),
// X3 partial-output aggregation (§V-G),
// X4 segment size = concurrent map slots (§IV-B),
// X5 the circular scan itself (§IV-B).

// AblationRow is one variant's outcome.
type AblationRow struct {
	Name   string
	TET    vclock.Duration
	ART    vclock.Duration
	Rounds int
	// Extra carries experiment-specific measurements (block scans,
	// intermediate records, …).
	Extra map[string]float64
}

// AblationResult is one ablation's full comparison.
type AblationResult struct {
	ID   string
	Note string
	Rows []AblationRow
}

// String renders the result as an aligned table.
func (a AblationResult) String() string {
	out := fmt.Sprintf("%s — %s\n", a.ID, a.Note)
	out += fmt.Sprintf("%-16s %12s %12s %8s\n", "variant", "TET", "ART", "rounds")
	for _, r := range a.Rows {
		out += fmt.Sprintf("%-16s %12s %12s %8d", r.Name, r.TET, r.ART, r.Rounds)
		for k, v := range r.Extra {
			out += fmt.Sprintf("  %s=%.0f", k, v)
		}
		out += "\n"
	}
	return out
}

// runVariant drives one scheduler over arrivals in env and summarizes.
func runVariant(name string, env *Env, sched scheduler.Scheduler, metas []scheduler.JobMeta, times []vclock.Time) (AblationRow, error) {
	arrivals := make([]runtime.Arrival, len(metas))
	for i := range metas {
		arrivals[i] = runtime.Arrival{Job: metas[i], At: times[i]}
	}
	exec := sim.NewExecutor(env.Cluster, env.Store, env.Model)
	res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: ablation variant %s: %w", name, err)
	}
	sum, err := res.Metrics.Summarize(name)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:   name,
		TET:    sum.TET,
		ART:    sum.ART,
		Rounds: res.Rounds,
		Extra:  map[string]float64{"blockScans": float64(exec.Stats().BlocksScanned)},
	}, nil
}

// AblationSlotChecking (X1): a straggler node at 25% speed paces every
// round of plain S^3; DynamicS3 with a slot checker excludes it and
// re-sizes segments to the healthy nodes.
func AblationSlotChecking(p Params) (AblationResult, error) {
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	straggler := 5 // arbitrary node id
	newEnv := func() (*Env, error) {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return nil, err
		}
		env.Cluster.SetSpeed(straggler, 0.25)
		return env, nil
	}

	out := AblationResult{
		ID:   "X1",
		Note: "periodic slot checking under a 0.25x straggler node (§IV-D1)",
	}

	// Variant 1: plain S3, straggler paces all rounds.
	env, err := newEnv()
	if err != nil {
		return AblationResult{}, err
	}
	row, err := runVariant("s3-nocheck", env, core.New(env.Plan, nil), metas, times)
	if err != nil {
		return AblationResult{}, err
	}
	out.Rows = append(out.Rows, row)

	// Variant 2: DynamicS3 + slot checker fed the observed speeds.
	env, err = newEnv()
	if err != nil {
		return AblationResult{}, err
	}
	checker := core.NewSlotChecker(0.5, 1.0, nil)
	for _, n := range env.Cluster.Nodes() {
		checker.Observe(dfs.NodeID(n.ID), n.Speed, 0)
	}
	all := make([]dfs.NodeID, len(env.Cluster.Nodes()))
	for i := range all {
		all[i] = dfs.NodeID(i)
	}
	dyn, err := core.NewDynamic(env.Plan.File(), all, SlotsPerNode, checker, nil)
	if err != nil {
		return AblationResult{}, err
	}
	row, err = runVariant("s3-slotcheck", env, dyn, metas, times)
	if err != nil {
		return AblationResult{}, err
	}
	out.Rows = append(out.Rows, row)
	return out, nil
}

// AblationDynAdjust (X2): S^3 with and without dynamic sub-job
// adjustment — the static variant parks arrivals until the queue
// manager drains (§IV-D2).
func AblationDynAdjust(p Params) (AblationResult, error) {
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	out := AblationResult{
		ID:   "X2",
		Note: "dynamic sub-job adjustment on/off (§IV-D2)",
	}
	for _, v := range []struct {
		name string
		mk   func(plan *dfs.SegmentPlan) scheduler.Scheduler
	}{
		{"s3-dynamic", func(plan *dfs.SegmentPlan) scheduler.Scheduler { return core.New(plan, nil) }},
		{"s3-static", func(plan *dfs.SegmentPlan) scheduler.Scheduler { return core.NewStatic(plan, nil) }},
	} {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return AblationResult{}, err
		}
		row, err := runVariant(v.name, env, v.mk(env.Plan), metas, times)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// AblationSegmentSize (X4): blocks per segment below, at, and above
// the cluster's concurrent map slots (§IV-B says equal is ideal).
func AblationSegmentSize(p Params) (AblationResult, error) {
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	out := AblationResult{
		ID:   "X4",
		Note: "segment size vs the ideal one-block-per-slot (§IV-B)",
	}
	for _, per := range []int{Nodes / 2, Nodes, Nodes * 2} {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return AblationResult{}, err
		}
		plan, err := dfs.PlanSegments(env.Plan.File(), per)
		if err != nil {
			return AblationResult{}, err
		}
		row, err := runVariant(fmt.Sprintf("seg-%d", per), env, core.New(plan, nil), metas, times)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// AblationCircularScan (X5): S^3 versus the restart-at-beginning
// variant that cannot admit a job mid-pass (§IV-B).
func AblationCircularScan(p Params) (AblationResult, error) {
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	out := AblationResult{
		ID:   "X5",
		Note: "circular scan vs scan-from-beginning (§IV-B)",
	}
	for _, v := range []struct {
		name string
		mk   func(plan *dfs.SegmentPlan) scheduler.Scheduler
	}{
		{"s3-circular", func(plan *dfs.SegmentPlan) scheduler.Scheduler { return core.New(plan, nil) }},
		{"s3-restart", func(plan *dfs.SegmentPlan) scheduler.Scheduler { return core.NewNoCircular(plan, nil) }},
	} {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return AblationResult{}, err
		}
		row, err := runVariant(v.name, env, v.mk(env.Plan), metas, times)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// AblationPartialAgg (X3): real-engine wordcount through S^3 with and
// without per-round partial aggregation (§V-G). The comparison is on
// carried intermediate state and reduce input volume; outputs must be
// identical.
func AblationPartialAgg() (AblationResult, error) {
	const (
		blocks    = 32
		blockSize = 4 << 10
		jobs      = 3
	)
	run := func(name string, enable bool) (AblationRow, error) {
		store := dfs.MustStore(8, 1)
		if _, err := workload.AddTextFile(store, "corpus", blocks, blockSize, 3); err != nil {
			return AblationRow{}, err
		}
		f, err := store.File("corpus")
		if err != nil {
			return AblationRow{}, err
		}
		plan, err := dfs.PlanSegments(f, 8)
		if err != nil {
			return AblationRow{}, err
		}
		engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
		specs := make(map[scheduler.JobID]mapreduce.JobSpec)
		var arrivals []runtime.Arrival
		prefixes := workload.DistinctPrefixes(jobs)
		for i := 0; i < jobs; i++ {
			id := scheduler.JobID(i + 1)
			specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefixes[i], 2)
			arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}, At: 0})
		}
		exec := mapreduce.NewExecutor(engine, specs)
		if enable {
			exec.EnablePartialAggregation(workload.SumReducer{})
		}
		res, err := runtime.RunTrace(core.New(plan, nil), exec, arrivals, runtime.Options{})
		if err != nil {
			return AblationRow{}, err
		}
		var reduceIn, outRecords int64
		for _, r := range exec.Results() {
			reduceIn += r.Counters.Get(mapreduce.CounterReduceInputRecords)
			outRecords += r.Counters.Get(mapreduce.CounterReduceOutRecords)
		}
		return AblationRow{
			Name:   name,
			Rounds: res.Rounds,
			Extra: map[string]float64{
				"reduceInputRecords": float64(reduceIn),
				"outputRecords":      float64(outRecords),
			},
		}, nil
	}
	out := AblationResult{ID: "X3", Note: "per-round partial aggregation of sub-job output (§V-G), real engine"}
	for _, v := range []struct {
		name   string
		enable bool
	}{{"no-partial-agg", false}, {"partial-agg", true}} {
		row, err := run(v.name, v.enable)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// AllAblations runs every ablation under p.
func AllAblations(p Params) ([]AblationResult, error) {
	var out []AblationResult
	for _, fn := range []func() (AblationResult, error){
		func() (AblationResult, error) { return AblationSlotChecking(p) },
		func() (AblationResult, error) { return AblationDynAdjust(p) },
		AblationPartialAgg,
		func() (AblationResult, error) { return AblationSegmentSize(p) },
		func() (AblationResult, error) { return AblationCircularScan(p) },
	} {
		res, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
