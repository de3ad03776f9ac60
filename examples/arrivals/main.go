// Arrival-pattern crossover study: the paper's §III examples
// generalized into a curve. Two identical 100-second jobs; the second
// arrives at offsets from 0% to 100% of the first job's runtime. For
// each offset the program prints TET and ART under FIFO, MRShare
// (single batch) and S^3 — showing where each scheme wins and why S^3
// dominates ART at every offset.
package main

import (
	"fmt"
	"log"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// runOnce builds a fresh 10-segment, 100-second-per-job environment
// and drives two jobs through the named scheme.
func runOnce(scheme string, offset vclock.Time) (tet, art float64, err error) {
	store := dfs.MustStore(1, 1)
	f, err := store.AddMetaFile("input", 10, 64<<20)
	if err != nil {
		return 0, 0, err
	}
	plan, err := dfs.PlanSegments(f, 1)
	if err != nil {
		return 0, 0, err
	}
	var sched scheduler.Scheduler
	switch scheme {
	case "fifo":
		sched = scheduler.NewFIFO(plan, nil)
	case "mrshare":
		sched, err = scheduler.NewMRShare(plan, []int{2}, nil)
		if err != nil {
			return 0, 0, err
		}
	case "s3":
		sched = core.New(plan, nil)
	default:
		return 0, 0, fmt.Errorf("unknown scheme %q", scheme)
	}
	exec := sim.NewExecutor(sim.NewCluster(1, 1), store, sim.CostModel{ScanMBps: 6.4})
	res, err := runtime.RunTrace(sched, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: offset},
	}, runtime.Options{})
	if err != nil {
		return 0, 0, err
	}
	tetD, err := res.Metrics.TET()
	if err != nil {
		return 0, 0, err
	}
	artD, err := res.Metrics.ART()
	if err != nil {
		return 0, 0, err
	}
	return tetD.Seconds(), artD.Seconds(), nil
}

func main() {
	fmt.Println("two 100s jobs; J2 arrives at offset t (10s segment granularity)")
	fmt.Printf("%8s | %8s %8s | %8s %8s | %8s %8s\n",
		"offset", "fifoTET", "fifoART", "mrsTET", "mrsART", "s3TET", "s3ART")
	for off := 0; off <= 100; off += 10 {
		row := fmt.Sprintf("%7ds |", off)
		for _, scheme := range []string{"fifo", "mrshare", "s3"} {
			tet, art, err := runOnce(scheme, vclock.Time(off))
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %8.0f %8.0f", tet, art)
			if scheme != "s3" {
				row += " |"
			}
		}
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("reading the curve:")
	fmt.Println(" - FIFO TET is always 200s: no sharing, full serialization.")
	fmt.Println(" - MRShare TET = offset+100: J1 idles until J2 arrives, then one batch.")
	fmt.Println(" - S3 TET = max(100, offset+100-shared): J2 salvages J1's remaining scan.")
	fmt.Println(" - S3 ART stays 100s at every offset: nobody ever waits.")
}
