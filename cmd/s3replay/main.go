// Command s3replay replays a recorded CSV arrival trace through one or
// more schedulers on the calibrated simulator and prints the paper's
// metrics plus a per-job audit table — the workflow for evaluating S^3
// against a production submission log.
//
// Trace format (see internal/workload.LoadArrivalTrace):
//
//	# id,arrival_seconds,file[,weight[,reduce_weight[,priority]]]
//	1,0,input
//	2,35.5,input,1,1,2
//
// Usage:
//
//	s3replay -trace jobs.csv -sched s3,fifo -inputgb 160 -blockmb 64
//	s3replay -trace jobs.csv -sched s3 -perjob
package main

import (
	"flag"
	"fmt"
	"os"
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
		tracePath = flag.String("trace", "", "CSV arrival trace (required)")
		schedList = flag.String("sched", "s3,fifo", "comma-separated schemes: s3 | s3-static | s3-nocircular | fifo | mrshare:size:… | window:seconds:maxbatch")
		inputGB   = flag.Int("inputgb", 160, "input size in GB")
		blockMB   = flag.Int("blockmb", 64, "block size in MB")
		perJob    = flag.Bool("perjob", false, "print the per-job audit table (first scheme)")
		traceJSON = flag.String("tracejson", "", "write the first scheme's span tree as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "s3replay: -trace is required")
		os.Exit(2)
	}
	if err := run(*tracePath, *schedList, *inputGB, *blockMB, *perJob, *traceJSON); err != nil {
		fmt.Fprintln(os.Stderr, "s3replay:", err)
		os.Exit(1)
	}
}

func run(tracePath, schedList string, inputGB, blockMB int, perJob bool, traceJSON string) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := workload.LoadArrivalTrace(f)
	if err != nil {
		return err
	}
	// Every job must read the same file name; the simulator registers
	// it at the configured scale.
	fileName := entries[0].Job.File
	arrivals := make([]runtime.Arrival, len(entries))
	for i, e := range entries {
		if e.Job.File != fileName {
			return fmt.Errorf("trace mixes files %q and %q; replay one file at a time", fileName, e.Job.File)
		}
		arrivals[i] = runtime.Arrival{Job: e.Job, At: e.At}
	}
	fmt.Printf("replaying %d jobs over %q (%d GB, %d MB blocks)\n\n", len(entries), fileName, inputGB, blockMB)

	var summaries []metrics.Summary
	for i, name := range strings.Split(schedList, ",") {
		name = strings.TrimSpace(name)
		store, err := dfs.NewStore(experiments.Nodes, 1)
		if err != nil {
			return err
		}
		file, err := store.AddMetaFile(fileName, inputGB*1024/blockMB, int64(blockMB)<<20)
		if err != nil {
			return err
		}
		plan, err := dfs.PlanSegments(file, experiments.Nodes)
		if err != nil {
			return err
		}
		var opts runtime.Options
		var spans *trace.Log
		if traceJSON != "" && i == 0 {
			spans, err = trace.New(1 << 16)
			if err != nil {
				return err
			}
			opts.Spans = spans
		}
		// The traced scheme shares the span log, so the JQM's per-job
		// lifetime spans land in the same Chrome trace as the driver's.
		sched, err := buildScheduler(name, plan, spans)
		if err != nil {
			return err
		}
		exec := sim.NewExecutor(sim.NewCluster(experiments.Nodes, experiments.SlotsPerNode), store, experiments.NormalModel())
		res, err := runtime.RunTrace(sched, exec, arrivals, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if spans != nil {
			out, err := os.Create(traceJSON)
			if err != nil {
				return err
			}
			if err := spans.WriteChromeTrace(out); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", traceJSON)
		}
		sum, err := res.Metrics.Summarize(sched.Name())
		if err != nil {
			return err
		}
		summaries = append(summaries, sum)
		fmt.Printf("%-14s TET=%-11s ART=%-11s rounds=%d\n", sched.Name(), sum.TET, sum.ART, res.Rounds)
		if perJob && i == 0 {
			fmt.Println("\nper-job audit (seconds):")
			if err := res.Metrics.WriteJobCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	if len(summaries) > 1 {
		rep, err := metrics.Normalize(summaries[0].Scheme, summaries)
		if err == nil {
			fmt.Println()
			fmt.Print(rep.String())
		}
	}
	return nil
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
	case strings.HasPrefix(name, "window:"):
		parts := strings.Split(name, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("window wants window:seconds:maxbatch, got %q", name)
		}
		var secs float64
		var max int
		if _, err := fmt.Sscanf(parts[1]+" "+parts[2], "%g %d", &secs, &max); err != nil {
			return nil, fmt.Errorf("bad window spec %q: %w", name, err)
		}
		return scheduler.NewWindowMRShare(plan, vclock.Duration(secs), max, log)
	case strings.HasPrefix(name, "mrshare:"):
		parts := strings.Split(name, ":")
		var sizes []int
		for _, p := range parts[1:] {
			var n int
			if _, err := fmt.Sscanf(p, "%d", &n); err != nil {
				return nil, fmt.Errorf("bad mrshare batch size %q", p)
			}
			sizes = append(sizes, n)
		}
		return scheduler.NewMRShare(plan, sizes, log)
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}
