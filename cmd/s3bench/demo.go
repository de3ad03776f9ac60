package main

import (
	"flag"
	"fmt"
	"io"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/workload"
)

// runDemo is `s3bench demo`: it walks Algorithm 1 on a tiny cluster.
// Three wordcount jobs arrive at different times over a 6-segment file,
// and the demo prints every Job Queue Manager decision — sub-job
// alignment, merged sub-job launches, circular cursor movement,
// completions — alongside the physical scan ledger that proves the
// sharing.
//
// This runs the real MapReduce engine: the jobs compute actual word
// counts over generated text and the results are printed at the end.
func runDemo(args []string, stdout io.Writer) error {
	flag.NewFlagSet("s3bench demo", flag.ExitOnError).Parse(args)
	const (
		nodes     = 3
		blocks    = 18 // 6 segments of 3 blocks
		blockSize = 4 << 10
	)
	store, err := dfs.NewStore(nodes, 1)
	if err != nil {
		return err
	}
	if _, err := workload.AddTextFile(store, "corpus", blocks, blockSize, 42); err != nil {
		return err
	}
	f, err := store.File("corpus")
	if err != nil {
		return err
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "file %q: %d blocks of %d KiB in %d segments of %d blocks (one per map slot)\n\n",
		f.Name, f.NumBlocks, blockSize>>10, plan.NumSegments(), plan.BlocksPerSegment())

	cluster, err := mapreduce.NewCluster(store, 1)
	if err != nil {
		return err
	}
	engine := mapreduce.NewEngine(cluster)
	specs := map[scheduler.JobID]mapreduce.JobSpec{
		1: workload.WordCountJob("count-t*", "corpus", "t", 2),
		2: workload.WordCountJob("count-a*", "corpus", "a", 2),
		3: workload.WordCountJob("count-w*", "corpus", "w", 2),
	}
	exec := mapreduce.NewExecutor(engine, specs)
	// Stretch measured wall time so the staggered virtual arrivals
	// below land mid-run.
	exec.SetTimeScale(1e6)

	log := trace.MustNew(512)
	s3 := core.New(plan, log)
	fmt.Fprintln(stdout, "submitting: job 1 at t=0, job 2 and job 3 while earlier rounds are in flight")
	res, err := runtime.RunTrace(s3, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, Name: "count-t*", File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, Name: "count-a*", File: "corpus"}, At: 1},
		{Job: scheduler.JobMeta{ID: 3, Name: "count-w*", File: "corpus"}, At: 2},
	}, runtime.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\n=== Job Queue Manager decision trace (Algorithm 1) ===")
	fmt.Fprint(stdout, log.String())

	fmt.Fprintln(stdout, "=== physical scan ledger ===")
	st := store.Stats()
	fmt.Fprintf(stdout, "block scans: %d (3 isolated jobs would need %d)\n", st.BlockReads, 3*blocks)
	fmt.Fprintf(stdout, "rounds launched: %d\n", res.Rounds)
	tet, err := res.Metrics.TET()
	if err != nil {
		return err
	}
	art, err := res.Metrics.ART()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "TET %v, ART %v (virtual time)\n", tet, art)

	fmt.Fprintln(stdout, "\n=== results (top words per job) ===")
	for id := scheduler.JobID(1); id <= 3; id++ {
		r, _ := exec.Result(id)
		fmt.Fprintf(stdout, "%s:", r.Name)
		for i, kv := range r.Output {
			if i == 5 {
				fmt.Fprintf(stdout, " …(%d more)", len(r.Output)-5)
				break
			}
			fmt.Fprintf(stdout, " %s=%s", kv.Key, kv.Value)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
