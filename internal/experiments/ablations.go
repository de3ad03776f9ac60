package experiments

import (
	"errors"
	"fmt"
	"sort"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Ablations quantify the design choices DESIGN.md §5 calls out:
// X1 periodic slot checking under heterogeneity (§IV-D1) and
// X3 partial-output aggregation (§V-G).
// X2 (dynamic sub-job adjustment, §IV-D2) and X5 (the circular scan,
// §IV-B) vary only the scheme, so they are the s3-static and
// s3-nocircular cells of bench/fig4-*-baseline.json. X4 (segment
// size = concurrent map slots, §IV-B) varies only the file's
// segmentBlocks: it is cmd/s3compare/testdata/seg-{20,80}.jsonl beside
// fig4-a's 40.

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

// AblationSlotChecking (X1): a straggler node at 25% speed paces every
// round of plain S^3 on Figure 4(a)'s workload; DynamicS3 with a slot
// checker excludes it and re-sizes segments to the healthy nodes.
func AblationSlotChecking(p Params) (AblationResult, error) {
	wf, err := Fig4Workload("a", p)
	if err != nil {
		return AblationResult{}, err
	}
	straggler := 5 // arbitrary node id
	out := AblationResult{
		ID:   "X1",
		Note: "periodic slot checking under a 0.25x straggler node (§IV-D1)",
	}
	for _, slotCheck := range []bool{false, true} {
		env, err := newCellEnv(wf)
		if err != nil {
			return AblationResult{}, err
		}
		env.cluster.SetSpeed(straggler, 0.25)
		scheme := schemes("s3-nocheck=s3")[0] // plain S3: the straggler paces all rounds
		if slotCheck {
			scheme = slotCheckScheme(env.cluster)
		}
		sched, err := scheme.Make(env.plans, env.readers)
		if err != nil {
			return AblationResult{}, err
		}
		exec := sim.NewExecutor(env.cluster, env.store, env.model)
		res, err := runtime.RunTrace(sched, exec, wf.Entries(), runtime.Options{})
		if err != nil {
			return AblationResult{}, err
		}
		sum, err := metrics.Summarize(res.Jobs)
		if err != nil {
			return AblationResult{}, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Name:   scheme.Name,
			TET:    sum.TET,
			ART:    sum.ART,
			Rounds: res.Rounds,
			Extra:  map[string]float64{"blockScans": float64(exec.Stats().BlocksScanned)},
		})
	}
	return out, nil
}

// slotCheckScheme is DynamicS3 with a slot checker fed the cluster's
// observed node speeds — the one variant outside ParseScheme's grammar,
// because it is built from the cluster it will run on.
func slotCheckScheme(cluster *sim.Cluster) SchemeSpec {
	return bare("s3-slotcheck", func(plan *dfs.SegmentPlan) (scheduler.Scheduler, error) {
		checker := core.NewSlotChecker(0.5, 1.0, nil)
		all := make([]dfs.NodeID, len(cluster.Nodes()))
		for i, n := range cluster.Nodes() {
			checker.Observe(dfs.NodeID(n.ID), n.Speed, 0)
			all[i] = dfs.NodeID(i)
		}
		return core.NewDynamic(plan.File(), all, SlotsPerNode, checker, nil)
	})
}

// AblationPartialAgg (X3): wordcount through S^3 with and without
// per-round partial aggregation (§V-G). The comparison is on carried
// intermediate state and reduce input volume; outputs must be
// identical.
func AblationPartialAgg() (AblationResult, error) {
	out := AblationResult{ID: "X3", Note: "per-round partial aggregation of sub-job output (§V-G), real engine"}
	for _, v := range []struct {
		name   string
		enable bool
	}{{"no-partial-agg", false}, {"partial-agg", true}} {
		results, res, err := partialAggWordcount(v.enable)
		if err != nil {
			return AblationResult{}, err
		}
		var reduceIn, outRecords int64
		for _, r := range results {
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

// partialAggWordcount runs X3's fixture through S^3: three
// prefix-filtered wordcount jobs, all arriving at once, over a generated
// 32-block corpus in 8-block segments. A round maps each of its blocks
// into every job it carries with the sequential reference and, with
// partialAgg, then folds each job's shuffle space through the combiner;
// a job's last round reduces it. Rounds take no time: X3 compares state,
// not time.
func partialAggWordcount(partialAgg bool) (map[scheduler.JobID]*mapreduce.Result, *runtime.Result, error) {
	const segment, blocks, blockSize, jobs = 8, 32, 4 << 10, 3
	store := dfs.MustStore(1, 1)
	f, err := workload.AddTextFile(store, "corpus", blocks, blockSize, 3)
	if err != nil {
		return nil, nil, err
	}
	plan, err := dfs.PlanSegments(f, segment)
	if err != nil {
		return nil, nil, err
	}
	running := make(map[scheduler.JobID]*mapreduce.Running, jobs)
	results := make(map[scheduler.JobID]*mapreduce.Result, jobs)
	var arrivals []runtime.Arrival
	for i, prefix := range workload.DistinctPrefixes(jobs) {
		id := scheduler.JobID(i + 1)
		if running[id], err = mapreduce.NewRunning(workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefix, 2)); err != nil {
			return nil, nil, err
		}
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}})
	}
	exec := runtime.ExecutorFunc(func(r scheduler.Round) (vclock.Duration, error) {
		for _, b := range r.Blocks {
			data, err := store.ReadBlock(b)
			if err != nil {
				return 0, err
			}
			for _, j := range r.Jobs {
				if err := running[j.ID].MapBlock(b, data); err != nil {
					return 0, err
				}
			}
		}
		if partialAgg {
			for _, j := range r.Jobs {
				if err := running[j.ID].Compact(workload.SumReducer{}); err != nil {
					return 0, err
				}
			}
		}
		for _, id := range r.Completes {
			var err error
			if results[id], err = running[id].Finish(); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	res, err := runtime.RunTrace(core.New(plan, nil), exec, arrivals, runtime.Options{})
	return results, res, err
}

// AllAblations runs every ablation under p.
func AllAblations(p Params) ([]AblationResult, error) {
	x1, err1 := AblationSlotChecking(p)
	x3, err3 := AblationPartialAgg()
	return []AblationResult{x1, x3}, errors.Join(err1, err3)
}
