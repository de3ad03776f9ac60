package main

import (
	"flag"
	"fmt"
	"io"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// runDemo is `s3bench demo`: it walks Algorithm 1 on a tiny cluster.
// Three wordcount jobs arrive at different times over a 6-segment file,
// and the demo prints every Job Queue Manager decision — sub-job
// alignment, merged sub-job launches, circular cursor movement,
// completions — alongside the physical scan ledger that proves the
// sharing.
//
// This runs the deployed master and three workers in-process: the jobs
// compute actual word counts over generated text and the results are
// printed at the end.
func runDemo(args []string, stdout io.Writer) error {
	flag.NewFlagSet("s3bench demo", flag.ExitOnError).Parse(args)
	const (
		nodes     = 3
		blocks    = 18 // 6 segments of 3 blocks
		blockSize = 4 << 10
	)
	stores := make([]*dfs.Store, nodes)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", blocks, blockSize, 42); err != nil {
			return err
		}
	}
	f, err := stores[0].File("corpus")
	if err != nil {
		return err
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "file %q: %d blocks of %d KiB in %d segments of %d blocks (one per worker)\n\n",
		f.Name, f.NumBlocks, blockSize>>10, plan.NumSegments(), plan.BlocksPerSegment())

	jobs := make(map[scheduler.JobID]remote.JobRef)
	var arrivals []runtime.Arrival
	for i, prefix := range []string{"t", "a", "w"} {
		id := scheduler.JobID(i + 1)
		jobs[id] = remote.JobRef{Name: "count-" + prefix + "*", Factory: "wordcount", Param: prefix, NumReduce: 2}
		// The run's clock advances by each round's wall time, microseconds
		// at least, so jobs 2 and 3 arrive while the first round runs.
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, Name: jobs[id].Name, File: "corpus"}, At: vclock.Time(i) * 1e-6})
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	log := trace.MustNew(512)
	fmt.Fprintln(stdout, "submitting: job 1 at t=0, job 2 and job 3 while earlier rounds are in flight")
	res, err := runtime.RunTrace(core.New(plan, log), cluster, arrivals, runtime.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\n=== Job Queue Manager decision trace (Algorithm 1) ===")
	fmt.Fprint(stdout, log.String())

	fmt.Fprintln(stdout, "=== physical scan ledger ===")
	stats, err := cluster.WorkerStats()
	if err != nil {
		return err
	}
	var scans int64
	for _, st := range stats {
		scans += st.BlockReads
	}
	fmt.Fprintf(stdout, "block scans: %d (3 isolated jobs would need %d)\n", scans, 3*blocks)
	fmt.Fprintf(stdout, "rounds launched: %d\n", res.Rounds)
	tet, err := metrics.TET(res.Jobs)
	if err != nil {
		return err
	}
	art, err := metrics.ART(res.Jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "TET %v, ART %v (the rounds' wall time)\n", tet, art)

	fmt.Fprintln(stdout, "\n=== results (top words per job) ===")
	for id := scheduler.JobID(1); id <= 3; id++ {
		out, err := cluster.JobOutput(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s:", jobs[id].Name)
		for i, kv := range out {
			if i == 5 {
				fmt.Fprintf(stdout, " …(%d more)", len(out)-5)
				break
			}
			fmt.Fprintf(stdout, " %s=%s", kv.Key, kv.Value)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
