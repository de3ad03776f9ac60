package sim

import (
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// These tests reproduce the paper's analytic Examples 1–3 (§III)
// exactly: two identical I/O-bound jobs over the same file, each
// taking 100 s alone, with the second arriving 20 s (Examples 1/3) or
// 80 s (Example 2) after the first.
//
// Configuration: 10 segments of one 64 MB block on a 1-node cluster,
// pure scan cost, 10 s per segment.

type exampleEnv struct {
	store *dfs.Store
	plan  *dfs.SegmentPlan
	exec  *Executor
}

func exampleSetup(t *testing.T) exampleEnv {
	t.Helper()
	store := dfs.MustStore(1, 1)
	f, err := store.AddMetaFile("input", 10, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(1, 1)
	exec := NewExecutor(cluster, store, CostModel{ScanMBps: 6.4})
	return exampleEnv{store: store, plan: plan, exec: exec}
}

func twoJobs(offset vclock.Time) []runtime.Arrival {
	return []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: offset},
	}
}

func runScheme(t *testing.T, sched scheduler.Scheduler, exec runtime.Executor, offset vclock.Time) (tet, art float64) {
	t.Helper()
	res, err := runtime.RunTrace(sched, exec, twoJobs(offset), runtime.Options{})
	if err != nil {
		t.Fatalf("%s: %v", sched.Name(), err)
	}
	tetD, err := metrics.TET(res.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	artD, err := metrics.ART(res.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	return tetD.Seconds(), artD.Seconds()
}

func fifo(t *testing.T, plan *dfs.SegmentPlan) *scheduler.Arbiter[*core.S3] {
	t.Helper()
	f, err := core.NewFIFO([]*dfs.SegmentPlan{plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExample1FIFO(t *testing.T) {
	env := exampleSetup(t)
	tet, art := runScheme(t, fifo(t, env.plan), env.exec, 20)
	almost(t, "TET(FIFO)", tet, 200)
	almost(t, "ART(FIFO)", art, 140)
}

func TestExample1MRShare(t *testing.T) {
	env := exampleSetup(t)
	m, err := core.NewMRShare(env.plan, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tet, art := runScheme(t, m, env.exec, 20)
	almost(t, "TET(MRShare)", tet, 120)
	almost(t, "ART(MRShare)", art, 110)
}

func TestExample2FIFO(t *testing.T) {
	env := exampleSetup(t)
	tet, art := runScheme(t, fifo(t, env.plan), env.exec, 80)
	almost(t, "TET(FIFO)", tet, 200)
	almost(t, "ART(FIFO)", art, 110)
}

func TestExample2MRShare(t *testing.T) {
	env := exampleSetup(t)
	m, err := core.NewMRShare(env.plan, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tet, art := runScheme(t, m, env.exec, 80)
	almost(t, "TET(MRShare)", tet, 180)
	almost(t, "ART(MRShare)", art, 140)
}

func TestExample3S3Offset20(t *testing.T) {
	env := exampleSetup(t)
	tet, art := runScheme(t, core.New(env.plan, nil), env.exec, 20)
	almost(t, "TET(S3)", tet, 120)
	almost(t, "ART(S3)", art, 100)
}

func TestExample3S3Offset80(t *testing.T) {
	env := exampleSetup(t)
	tet, art := runScheme(t, core.New(env.plan, nil), env.exec, 80)
	almost(t, "TET(S3)", tet, 180)
	almost(t, "ART(S3)", art, 100)
}

// The measured I/O savings behind the timings: for the 20 s offset, S^3
// scans 12 segment-blocks (10 + 2 re-scanned for job 2's missed
// prefix) where FIFO scans 20.
func TestExampleScanVolume(t *testing.T) {
	env := exampleSetup(t)
	if _, err := runtime.RunTrace(core.New(env.plan, nil), env.exec, twoJobs(20), runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	s3Scans := env.exec.Stats().BlocksScanned

	env2 := exampleSetup(t)
	if _, err := runtime.RunTrace(fifo(t, env2.plan), env2.exec, twoJobs(20), runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	fifoScans := env2.exec.Stats().BlocksScanned

	if s3Scans != 12 {
		t.Errorf("S3 block scans = %d, want 12", s3Scans)
	}
	if fifoScans != 20 {
		t.Errorf("FIFO block scans = %d, want 20", fifoScans)
	}
}
