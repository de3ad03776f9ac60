package experiments

import (
	"errors"
	"fmt"
	"sort"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Ablations quantify the design choices DESIGN.md §5 calls out:
// X1 periodic slot checking under heterogeneity (§IV-D1),
// X3 partial-output aggregation (§V-G),
// X4 segment size = concurrent map slots (§IV-B).
// X2 (dynamic sub-job adjustment, §IV-D2) and X5 (the circular scan,
// §IV-B) vary only the scheme, so they are the s3-static and
// s3-nocircular cells of bench/fig4-*.jsonl (Fig4Schemes).

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
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys) // map order would make the table differ run to run
		for _, k := range keys {
			out += fmt.Sprintf("  %s=%.0f", k, r.Extra[k])
		}
		out += "\n"
	}
	return out
}

// ablationRow reports one variant's run as a table row.
func ablationRow(run SimRun) AblationRow {
	return AblationRow{
		Name:   run.Summary.Scheme,
		TET:    run.Summary.TET,
		ART:    run.Summary.ART,
		Rounds: run.Result.Rounds,
		Extra:  map[string]float64{"blockScans": float64(run.Stats.BlocksScanned)},
	}
}

// AblationSlotChecking (X1): a straggler node at 25% speed paces every
// round of plain S^3; DynamicS3 with a slot checker excludes it and
// re-sizes segments to the healthy nodes.
func AblationSlotChecking(p Params) (AblationResult, error) {
	arrivals := wordcountArrivals(p.SparsePattern(), 1, 1)
	straggler := 5 // arbitrary node id
	out := AblationResult{
		ID:   "X1",
		Note: "periodic slot checking under a 0.25x straggler node (§IV-D1)",
	}
	for _, variant := range []func(*sim.Cluster) SchemeSpec{
		// Plain S3: the straggler paces all rounds.
		func(*sim.Cluster) SchemeSpec { return schemes("s3-nocheck=s3")[0] },
		slotCheckScheme,
	} {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return AblationResult{}, err
		}
		env.Cluster.SetSpeed(straggler, 0.25)
		run, err := Simulate(env, variant(env.Cluster), nil, arrivals, runtime.Options{}, nil)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, ablationRow(run))
	}
	return out, nil
}

// slotCheckScheme is DynamicS3 with a slot checker fed the cluster's
// observed node speeds — the one variant outside ParseScheme's grammar,
// because it is built from the cluster it will run on.
func slotCheckScheme(cluster *sim.Cluster) SchemeSpec {
	return bare("s3-slotcheck", func(plan *dfs.SegmentPlan, log *trace.Log) (scheduler.Scheduler, error) {
		checker := core.NewSlotChecker(0.5, 1.0, nil)
		all := make([]dfs.NodeID, len(cluster.Nodes()))
		for i, n := range cluster.Nodes() {
			checker.Observe(dfs.NodeID(n.ID), n.Speed, 0)
			all[i] = dfs.NodeID(i)
		}
		return core.NewDynamic(plan.File(), all, SlotsPerNode, checker, log)
	})
}

// AblationSegmentSize (X4): blocks per segment below, at, and above
// the cluster's concurrent map slots (§IV-B says equal is ideal).
func AblationSegmentSize(p Params) (AblationResult, error) {
	arrivals := wordcountArrivals(p.SparsePattern(), 1, 1)
	out := AblationResult{
		ID:   "X4",
		Note: "segment size vs the ideal one-block-per-slot (§IV-B)",
	}
	for _, per := range []int{Nodes / 2, Nodes, Nodes * 2} {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return AblationResult{}, err
		}
		if env.Plan, err = dfs.PlanSegments(env.Plan.File(), per); err != nil {
			return AblationResult{}, err
		}
		run, err := Simulate(env, schemes(fmt.Sprintf("seg-%d=s3", per))[0], nil, arrivals, runtime.Options{}, nil)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, ablationRow(run))
	}
	return out, nil
}

// AblationPartialAgg (X3): real-engine wordcount through S^3 with and
// without per-round partial aggregation (§V-G). The comparison is on
// carried intermediate state and reduce input volume; outputs must be
// identical.
func AblationPartialAgg() (AblationResult, error) {
	out := AblationResult{ID: "X3", Note: "per-round partial aggregation of sub-job output (§V-G), real engine"}
	for _, v := range []struct {
		name   string
		enable bool
	}{{"no-partial-agg", false}, {"partial-agg", true}} {
		exec, res, err := engineWordcount(v.enable)
		if err != nil {
			return AblationResult{}, err
		}
		var reduceIn, outRecords int64
		for _, r := range exec.Results() {
			reduceIn += r.Counters.Get(mapreduce.CounterReduceInputRecords)
			outRecords += r.Counters.Get(mapreduce.CounterReduceOutRecords)
		}
		out.Rows = append(out.Rows, AblationRow{
			Name:   v.name,
			Rounds: res.Rounds,
			Extra: map[string]float64{
				"reduceInputRecords": float64(reduceIn),
				"outputRecords":      float64(outRecords),
			},
		})
	}
	return out, nil
}

// engineWordcount runs X3's real-engine fixture through S^3: three
// prefix-filtered wordcount jobs, all arriving at once, over a generated
// 32-block corpus on 8 nodes — with per-round partial aggregation when
// partialAgg is set.
func engineWordcount(partialAgg bool) (*mapreduce.Executor, *runtime.Result, error) {
	const nodes, blocks, blockSize, jobs = 8, 32, 4 << 10, 3
	store := dfs.MustStore(nodes, 1)
	f, err := workload.AddTextFile(store, "corpus", blocks, blockSize, 3)
	if err != nil {
		return nil, nil, err
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		return nil, nil, err
	}
	specs := make(map[scheduler.JobID]mapreduce.JobSpec)
	var arrivals []runtime.Arrival
	for i, prefix := range workload.DistinctPrefixes(jobs) {
		id := scheduler.JobID(i + 1)
		specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefix, 2)
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}})
	}
	exec := mapreduce.NewExecutor(mapreduce.NewEngine(mapreduce.MustCluster(store, 1)), specs)
	if partialAgg {
		exec.EnablePartialAggregation(workload.SumReducer{})
	}
	res, err := runtime.RunTrace(core.New(plan, nil), exec, arrivals, runtime.Options{})
	return exec, res, err
}

// AllAblations runs every ablation under p.
func AllAblations(p Params) ([]AblationResult, error) {
	x1, err1 := AblationSlotChecking(p)
	x3, err3 := AblationPartialAgg()
	x4, err4 := AblationSegmentSize(p)
	return []AblationResult{x1, x3, x4}, errors.Join(err1, err3, err4)
}
