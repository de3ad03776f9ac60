// Wordcount workload study (paper §V-B/§V-D): ten pattern-counting
// wordcount jobs arrive in the paper's sparse pattern over the 160 GB
// corpus, and all five schedulers — S^3, FIFO, and the three MRShare
// batchings — are compared on TET and ART using the calibrated
// discrete-event simulator at full 40-node scale.
package main

import (
	"fmt"
	"log"

	"s3sched/internal/experiments"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/sim"
	"s3sched/internal/workload"
)

func main() {
	params := experiments.DefaultParams()
	metas := workload.WordCountMetas(experiments.NumJobs, "input", 1, 1)
	times := params.SparsePattern()

	fmt.Println("ten wordcount jobs, sparse arrivals (3 groups), 160 GB / 64 MB blocks / 40 nodes")
	fmt.Printf("arrivals: %v\n\n", times)

	var summaries []metrics.Summary
	for _, spec := range experiments.PaperSchemes() {
		env, err := experiments.NewEnv(experiments.WordcountGB, 64, params.Model)
		if err != nil {
			log.Fatal(err)
		}
		sched, err := spec.Make(env.Plan)
		if err != nil {
			log.Fatal(err)
		}
		exec := sim.NewExecutor(env.Cluster, env.Store, env.Model)
		arrivals := make([]runtime.Arrival, len(metas))
		for i := range metas {
			arrivals[i] = runtime.Arrival{Job: metas[i], At: times[i]}
		}
		res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
		if err != nil {
			log.Fatal(err)
		}
		sum, err := res.Metrics.Summarize(spec.Name)
		if err != nil {
			log.Fatal(err)
		}
		summaries = append(summaries, sum)
		fmt.Printf("%-8s rounds=%-4d segmentScans=%-5d (FIFO re-scans everything; S^3 shares)\n",
			spec.Name, res.Rounds, exec.Stats().Rounds)
	}

	rep, err := metrics.Normalize("s3", summaries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.String())
	fmt.Println("\npaper shape: S3 best on both; FIFO ~2.2x TET / ~2.5x ART; MRShare between")
}
