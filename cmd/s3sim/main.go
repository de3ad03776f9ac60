// Command s3sim runs one custom scheduling scenario on the calibrated
// discrete-event simulator and prints per-scheme TET/ART plus work
// counters. It is the free-form companion to s3bench's fixed paper
// experiments.
//
// Examples:
//
//	s3sim                                  # defaults: paper fig4a setup
//	s3sim -sched s3,fifo -jobs 4 -pattern dense -gap 5
//	s3sim -sched s3,mrshare:2:2 -jobs 4 -pattern sparse -blockmb 128
//	s3sim -sched s3 -jobs 3 -trace         # dump the decision trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/experiments"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

func main() {
	var (
		schedList = flag.String("sched", "s3,fifo,mrshare:5:5", "comma-separated schemes: s3 | s3-static | s3-nocircular | fifo | mrshare[:size:size…]")
		jobs      = flag.Int("jobs", 10, "number of jobs")
		pattern   = flag.String("pattern", "sparse", "arrival pattern: dense | sparse | uniform")
		gap       = flag.Float64("gap", 230, "inter-group gap (sparse) or inter-job gap (dense/uniform), seconds")
		intra     = flag.Float64("intra", 25, "intra-group gap for the sparse pattern, seconds")
		inputGB   = flag.Int("inputgb", 160, "input size in GB")
		blockMB   = flag.Int("blockmb", 64, "block size in MB")
		weight    = flag.Float64("weight", 1, "per-job map weight (heavy workload: ~14)")
		rweight   = flag.Float64("rweight", 1, "per-job reduce weight (heavy workload: ~25)")
		showTrace = flag.Bool("trace", false, "print the scheduler decision trace (first scheme only)")
		timeline  = flag.Bool("timeline", false, "print an ASCII Gantt of the rounds (first scheme only)")
		cacheMB   = flag.Int("cachemb", 0, "per-node block-cache budget in MB (0 = caching off)")
		cacheFrac = flag.Float64("cachefrac", 0.1, "cached scan cost as a fraction of disk cost, in [0,1]")
	)
	flag.Parse()

	times, err := arrivalTimes(*pattern, *jobs, vclock.Duration(*gap), vclock.Duration(*intra))
	if err != nil {
		fatal(err)
	}
	metas := workload.WordCountMetas(*jobs, "input", *weight, *rweight)

	var summaries []metrics.Summary
	for i, name := range strings.Split(*schedList, ",") {
		env, err := experiments.NewEnv(*inputGB, *blockMB, experiments.NormalModel())
		if err != nil {
			fatal(err)
		}
		var log *trace.Log
		if (*showTrace || *timeline) && i == 0 {
			log, err = trace.New(4096)
			if err != nil {
				fatal(err)
			}
		}
		sched, err := buildScheduler(strings.TrimSpace(name), env.Plan, log)
		if err != nil {
			fatal(err)
		}
		exec := sim.NewExecutor(env.Cluster, env.Store, env.Model)
		if *cacheMB > 0 {
			if err := exec.EnableCache(int64(*cacheMB)<<20*int64(experiments.Nodes), *cacheFrac); err != nil {
				fatal(err)
			}
		}
		arrivals := make([]runtime.Arrival, len(metas))
		for j := range metas {
			arrivals[j] = runtime.Arrival{Job: metas[j], At: times[j]}
		}
		res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		sum, err := res.Metrics.Summarize(sched.Name())
		if err != nil {
			fatal(err)
		}
		summaries = append(summaries, sum)
		st := exec.Stats()
		fmt.Printf("%-14s TET=%-10s ART=%-10s rounds=%-5d blockScans=%-7d mapTasks=%d",
			sched.Name(), sum.TET, sum.ART, res.Rounds, st.BlocksScanned, st.MapTasks)
		if *cacheMB > 0 {
			fmt.Printf(" cacheHits=%d (%.1f%%)", exec.CacheStats().Hits, 100*exec.CacheStats().HitRatio())
		}
		fmt.Println()
		if log != nil && *showTrace {
			fmt.Println("--- decision trace ---")
			fmt.Print(log.String())
			if log.Dropped() > 0 {
				fmt.Printf("(%d earlier events dropped)\n", log.Dropped())
			}
			fmt.Println("----------------------")
		}
		if log != nil && *timeline {
			fmt.Print(log.RenderTimeline(80))
		}
	}
	if len(summaries) > 1 {
		rep, err := metrics.Normalize(summaries[0].Scheme, summaries)
		if err == nil {
			fmt.Println()
			fmt.Print(rep.String())
		}
	}
}

func arrivalTimes(pattern string, jobs int, gap, intra vclock.Duration) ([]vclock.Time, error) {
	switch pattern {
	case "dense":
		return workload.DensePattern(jobs, gap), nil
	case "uniform":
		return workload.DensePattern(jobs, gap), nil
	case "sparse":
		// Split jobs into three groups like the paper's 3/3/4.
		a := jobs / 3
		b := jobs / 3
		c := jobs - a - b
		var sizes []int
		for _, n := range []int{a, b, c} {
			if n > 0 {
				sizes = append(sizes, n)
			}
		}
		return workload.SparseGroups(sizes, intra, gap), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
}

func buildScheduler(name string, plan *dfs.SegmentPlan, log *trace.Log) (scheduler.Scheduler, error) {
	switch {
	case name == "s3":
		return core.New(plan, log), nil
	case name == "s3-static":
		return core.NewStatic(plan, log), nil
	case name == "s3-nocircular":
		return core.NewNoCircular(plan, log), nil
	case name == "fifo":
		return scheduler.NewFIFO(plan, log), nil
	case name == "fair":
		return scheduler.NewFair(plan, log), nil
	case strings.HasPrefix(name, "mrshare"), strings.HasPrefix(name, "mrs"):
		parts := strings.Split(name, ":")
		var sizes []int
		for _, p := range parts[1:] {
			n, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("bad mrshare batch size %q", p)
			}
			sizes = append(sizes, n)
		}
		if len(sizes) == 0 {
			return nil, fmt.Errorf("mrshare needs batch sizes, e.g. mrshare:6:4")
		}
		return scheduler.NewMRShare(plan, sizes, log)
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s3sim:", err)
	os.Exit(1)
}
