package main

import (
	"io"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// writeTraceJSON runs a small deterministic S^3 workload on the cost
// model and writes the resulting span tree as Chrome trace-event JSON
// (chrome://tracing / Perfetto). The workload is fixed — 16 blocks in
// 4 segments, 5 staggered wordcount-shaped jobs — so the output is
// byte-identical across runs and golden-testable.
func writeTraceJSON(w io.Writer) error {
	store, err := dfs.NewStore(4, 1)
	if err != nil {
		return err
	}
	f, err := store.AddMetaFile("input", 16, 64<<20)
	if err != nil {
		return err
	}
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		return err
	}
	log, err := trace.New(4096)
	if err != nil {
		return err
	}
	// One log feeds both layers: the JQM's per-job lifetime spans and
	// the driver's run/round/stage spans land in the same trace.
	sched := core.New(plan, log)
	exec := sim.NewExecutor(sim.NewCluster(4, 1), store, sim.CostModel{
		ScanMBps:       40,
		TaskOverhead:   0.5,
		RoundOverhead:  0.3,
		JobSetup:       0.2,
		SharePenalty:   0.01,
		ReducePerRound: 0.6,
		ReduceSetup:    0.2,
	})
	arrivals := make([]runtime.Arrival, 5)
	for i := range arrivals {
		arrivals[i] = runtime.Arrival{
			Job: scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input"},
			At:  vclock.Time(i) * 8,
		}
	}
	if _, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{Spans: log}); err != nil {
		return err
	}
	return log.WriteChromeTrace(w)
}
