package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

const schedUsage = "comma-separated schemes: s3 | s3-static | s3-nocircular | fifo | fair | mrshare:size[:size…] | window:seconds:maxbatch"

// runSim is `s3bench sim`: one custom scheduling scenario on the
// calibrated simulator, per-scheme TET/ART plus work counters — the
// free-form companion to the fixed paper experiments.
//
//	s3bench sim                                  # defaults: paper fig4a setup
//	s3bench sim -sched s3,fifo -jobs 4 -pattern dense -gap 5
//	s3bench sim -sched s3,mrshare:2:2 -jobs 4 -pattern sparse -blockmb 128
//	s3bench sim -sched s3 -jobs 3 -trace         # dump the decision trace
func runSim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("s3bench sim", flag.ExitOnError)
	var (
		schedList = fs.String("sched", "s3,fifo,mrshare:5:5", schedUsage)
		jobs      = fs.Int("jobs", 10, "number of jobs")
		pattern   = fs.String("pattern", "sparse", "arrival pattern: dense | sparse | uniform")
		gap       = fs.Float64("gap", 230, "inter-group gap (sparse) or inter-job gap (dense/uniform), seconds")
		intra     = fs.Float64("intra", 25, "intra-group gap for the sparse pattern, seconds")
		inputGB   = fs.Int("inputgb", 160, "input size in GB")
		blockMB   = fs.Int("blockmb", 64, "block size in MB")
		weight    = fs.Float64("weight", 1, "per-job map weight (heavy workload: ~14)")
		rweight   = fs.Float64("rweight", 1, "per-job reduce weight (heavy workload: ~25)")
		showTrace = fs.Bool("trace", false, "print the scheduler decision trace (first scheme only)")
		timeline  = fs.Bool("timeline", false, "print an ASCII Gantt of the rounds (first scheme only)")
		cacheMB   = fs.Int("cachemb", 0, "per-node block-cache budget in MB (0 = caching off)")
		cacheFrac = fs.Float64("cachefrac", 0.1, "cached scan cost as a fraction of disk cost, in [0,1]")
	)
	fs.Parse(args)

	times, err := arrivalTimes(*pattern, *jobs, vclock.Duration(*gap), vclock.Duration(*intra))
	if err != nil {
		return err
	}
	arrivals, err := experiments.Arrivals(workload.WordCountMetas(*jobs, "input", *weight, *rweight), times)
	if err != nil {
		return err
	}
	c := comparison{schedList: *schedList, file: "input", inputGB: *inputGB, blockMB: *blockMB, arrivals: arrivals}
	if *showTrace || *timeline {
		c.logCap = 4096
	}
	if *cacheMB > 0 {
		c.tune = func(_ scheduler.Scheduler, exec *sim.Executor) error {
			return exec.EnableCachePolicy(int64(*cacheMB)<<20, *cacheFrac, dfs.PolicyLRU)
		}
	}
	c.report = func(_ int, run experiments.SimRun, log *trace.Log) error {
		fmt.Fprintf(stdout, "%-14s TET=%-10s ART=%-10s rounds=%-5d blockScans=%-7d mapTasks=%d",
			run.Summary.Scheme, run.Summary.TET, run.Summary.ART, run.Result.Rounds, run.Stats.BlocksScanned, run.Stats.MapTasks)
		if *cacheMB > 0 {
			cs := run.Result.Metrics.CacheStats()
			fmt.Fprintf(stdout, " cacheHits=%d (%.1f%%)", cs.Hits, 100*cs.HitRatio())
		}
		fmt.Fprintln(stdout)
		if log != nil && *showTrace {
			fmt.Fprintln(stdout, "--- decision trace ---")
			fmt.Fprint(stdout, log.String())
			if log.Dropped() > 0 {
				fmt.Fprintf(stdout, "(%d earlier events dropped)\n", log.Dropped())
			}
			fmt.Fprintln(stdout, "----------------------")
		}
		if log != nil && *timeline {
			fmt.Fprint(stdout, log.RenderTimeline(80))
		}
		return nil
	}
	return c.run(stdout)
}

// arrivalTimes validates and expands -pattern / -jobs / -gap / -intra.
func arrivalTimes(pattern string, jobs int, gap, intra vclock.Duration) ([]vclock.Time, error) {
	if jobs < 1 {
		return nil, usagef("-jobs must be at least 1, got %d", jobs)
	}
	if gap < 0 || intra < 0 {
		return nil, usagef("-gap and -intra must not be negative, got %v and %v", gap, intra)
	}
	switch pattern {
	case "dense", "uniform":
		return workload.DensePattern(jobs, gap), nil
	case "sparse":
		// Split jobs into three groups like the paper's 3/3/4.
		var sizes []int
		for _, n := range []int{jobs / 3, jobs / 3, jobs - 2*(jobs/3)} {
			if n > 0 {
				sizes = append(sizes, n)
			}
		}
		return workload.SparseGroups(sizes, intra, gap), nil
	default:
		return nil, usagef("unknown -pattern %q (want dense | sparse | uniform)", pattern)
	}
}

// runReplay is `s3bench replay`: a recorded CSV arrival trace through
// one or more schedulers on the calibrated simulator, the paper's
// metrics plus a per-job audit table — the workflow for evaluating S^3
// against a production submission log.
//
// Trace format (see internal/workload.LoadArrivalTrace):
//
//	# id,arrival_seconds,file[,weight[,reduce_weight[,priority]]]
//	1,0,input
//	2,35.5,input,1,1,2
//
//	s3bench replay -trace jobs.csv -sched s3,fifo -inputgb 160 -blockmb 64
//	s3bench replay -trace jobs.csv -sched s3 -perjob
func runReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("s3bench replay", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "", "CSV arrival trace (required)")
		schedList = fs.String("sched", "s3,fifo", schedUsage)
		inputGB   = fs.Int("inputgb", 160, "input size in GB")
		blockMB   = fs.Int("blockmb", 64, "block size in MB")
		perJob    = fs.Bool("perjob", false, "print the per-job audit table (first scheme)")
		traceJSON = fs.String("tracejson", "", "write the first scheme's span tree as Chrome trace-event JSON to this file")
	)
	fs.Parse(args)
	if *tracePath == "" {
		return usagef("-trace is required")
	}
	f, err := os.Open(*tracePath)
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
	c := comparison{
		schedList: *schedList, file: fileName, inputGB: *inputGB, blockMB: *blockMB, arrivals: arrivals,
		header: fmt.Sprintf("replaying %d jobs over %q (%d GB, %d MB blocks)\n\n", len(entries), fileName, *inputGB, *blockMB),
	}
	if *traceJSON != "" {
		c.logCap, c.spans = 1<<16, true
	}
	c.report = func(i int, run experiments.SimRun, spans *trace.Log) error {
		if spans != nil {
			if err := writeFile(*traceJSON, spans.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *traceJSON)
		}
		fmt.Fprintf(stdout, "%-14s TET=%-11s ART=%-11s rounds=%d\n", run.Summary.Scheme, run.Summary.TET, run.Summary.ART, run.Result.Rounds)
		if *perJob && i == 0 {
			fmt.Fprintln(stdout, "\nper-job audit (seconds):")
			if err := run.Result.Metrics.WriteJobCSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}
	return c.run(stdout)
}

// comparison is what `sim` and `replay` share: every scheme of -sched
// over the same arrivals, each on a fresh paper-scale environment, then
// the table normalized to the first scheme. The two differ only in
// where the arrivals come from and in what they print per scheme.
type comparison struct {
	schedList        string
	file             string // the one input file the arrivals read
	inputGB, blockMB int
	arrivals         []runtime.Arrival
	header           string // printed once the flags have been validated
	// logCap, when positive, gives scheme 0 a decision log of that
	// capacity, which report then sees (nil for the later schemes). With
	// spans the log also takes the run's span tree, so the JQM's per-job
	// lifetime spans land in the same Chrome trace as the driver's.
	logCap int
	spans  bool
	tune   experiments.Tune
	report func(i int, run experiments.SimRun, log *trace.Log) error
}

func (c comparison) run(stdout io.Writer) error {
	specs := strings.Split(c.schedList, ",")
	schemes := make([]experiments.SchemeSpec, len(specs))
	envs := make([]*experiments.Env, len(specs))
	for i, spec := range specs {
		var err error
		if schemes[i], err = experiments.ParseScheme(strings.TrimSpace(spec)); err != nil {
			return usagef("-sched: %v", err)
		}
		if envs[i], err = experiments.NewEnvFile(c.file, c.inputGB, c.blockMB, experiments.NormalModel()); err != nil {
			return usagef("-inputgb %d with -blockmb %d: %v", c.inputGB, c.blockMB, err)
		}
	}
	fmt.Fprint(stdout, c.header)

	var summaries []metrics.Summary
	for i, scheme := range schemes {
		var log *trace.Log
		var opts runtime.Options
		if i == 0 && c.logCap > 0 {
			log = trace.MustNew(c.logCap)
			if c.spans {
				opts.Spans = log
			}
		}
		run, err := experiments.Simulate(envs[i], scheme, log, c.arrivals, opts, c.tune)
		if err != nil {
			return err
		}
		summaries = append(summaries, run.Summary)
		if err := c.report(i, run, log); err != nil {
			return err
		}
	}
	if len(summaries) > 1 {
		if rep, err := metrics.Normalize(summaries[0].Scheme, summaries); err == nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, rep.String())
		}
	}
	return nil
}
