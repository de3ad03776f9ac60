package mapreduce_test

import (
	"fmt"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// realSetup builds a small generated corpus, a cluster, and wordcount
// specs for n jobs.
func realSetup(t *testing.T, blocks, n int) (*dfs.Store, *dfs.SegmentPlan, *mapreduce.Executor, []scheduler.JobMeta) {
	t.Helper()
	store := dfs.MustStore(4, 1)
	if _, err := workload.AddTextFile(store, "corpus", blocks, 2048, 7); err != nil {
		t.Fatal(err)
	}
	f, err := store.File("corpus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
	specs := make(map[scheduler.JobID]mapreduce.JobSpec, n)
	metas := make([]scheduler.JobMeta, n)
	prefixes := workload.DistinctPrefixes(n)
	for i := 0; i < n; i++ {
		id := scheduler.JobID(i + 1)
		specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefixes[i], 2)
		metas[i] = scheduler.JobMeta{ID: id, File: "corpus"}
	}
	return store, plan, mapreduce.NewExecutor(engine, specs), metas
}

func TestEngineExecutorS3ProducesCorrectResults(t *testing.T) {
	store, plan, exec, metas := realSetup(t, 8, 2)
	// Reference: run each job alone on a fresh engine.
	refStore := dfs.MustStore(4, 1)
	if _, err := workload.AddTextFile(refStore, "corpus", 8, 2048, 7); err != nil {
		t.Fatal(err)
	}
	refEngine := mapreduce.NewEngine(mapreduce.MustCluster(refStore, 1))
	want := map[scheduler.JobID]string{}
	prefixes := workload.DistinctPrefixes(2)
	for i, meta := range metas {
		res, err := refEngine.RunJob(workload.WordCountJob("ref", "corpus", prefixes[i], 2))
		if err != nil {
			t.Fatal(err)
		}
		want[meta.ID] = fmt.Sprint(res.Output)
	}

	// Drive through S3 with a staggered arrival: job 2 joins after
	// round 1, so its scan order differs from block order.
	s := core.New(plan, nil)
	res, err := runtime.RunTrace(s, exec, []runtime.Arrival{
		{Job: metas[0], At: 0},
		{Job: metas[1], At: 0.000001}, // arrives during round 1 (wall-timed)
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Jobs() != 2 {
		t.Fatalf("jobs = %d", res.Metrics.Jobs())
	}
	for id, wantOut := range want {
		got, ok := exec.Results()[id]
		if !ok {
			t.Fatalf("no result for job %d", id)
		}
		if fmt.Sprint(got.Output) != wantOut {
			t.Errorf("job %d output differs from isolated run", id)
		}
	}
	// Shared scheduling must not have scanned more than 2 full passes.
	if reads := store.Stats().BlockReads; reads > 16 {
		t.Errorf("block reads = %d, want <= 16", reads)
	}
}

func TestEngineExecutorSharedScanSavesReads(t *testing.T) {
	// Both jobs at t=0: S3 batches every round -> exactly one pass.
	store, plan, exec, metas := realSetup(t, 8, 3)
	s := core.New(plan, nil)
	_, err := runtime.RunTrace(s, exec, []runtime.Arrival{
		{Job: metas[0], At: 0},
		{Job: metas[1], At: 0},
		{Job: metas[2], At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reads := store.Stats().BlockReads; reads != 8 {
		t.Errorf("block reads = %d, want 8 (one shared pass for 3 jobs)", reads)
	}

	// FIFO scans once per job.
	store2, plan2, exec2, metas2 := realSetup(t, 8, 3)
	f, err := scheduler.NewFIFO([]*dfs.SegmentPlan{plan2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runtime.RunTrace(f, exec2, []runtime.Arrival{
		{Job: metas2[0], At: 0},
		{Job: metas2[1], At: 0},
		{Job: metas2[2], At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reads := store2.Stats().BlockReads; reads != 24 {
		t.Errorf("FIFO block reads = %d, want 24 (3 isolated passes)", reads)
	}
}

func TestEngineExecutorMRShareMatchesS3Output(t *testing.T) {
	_, plan, exec, metas := realSetup(t, 8, 2)
	m, err := scheduler.NewMRShare(plan, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runtime.RunTrace(m, exec, []runtime.Arrival{
		{Job: metas[0], At: 0},
		{Job: metas[1], At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}

	_, plan2, exec2, metas2 := realSetup(t, 8, 2)
	s := core.New(plan2, nil)
	_, err = runtime.RunTrace(s, exec2, []runtime.Arrival{
		{Job: metas2[0], At: 0},
		{Job: metas2[1], At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []scheduler.JobID{1, 2} {
		a := fmt.Sprint(exec.Results()[id].Output)
		b := fmt.Sprint(exec2.Results()[id].Output)
		if a != b {
			t.Errorf("job %d: MRShare and S3 outputs differ", id)
		}
	}
}

func TestEngineExecutorPartialAggregation(t *testing.T) {
	_, plan, exec, metas := realSetup(t, 8, 1)
	exec.EnablePartialAggregation(workload.SumReducer{})

	s := core.New(plan, nil)
	_, err := runtime.RunTrace(s, exec, []runtime.Arrival{{Job: metas[0], At: 0}}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withAgg := fmt.Sprint(exec.Results()[1].Output)

	_, plan2, exec2, metas2 := realSetup(t, 8, 1)
	s2 := core.New(plan2, nil)
	if _, err := runtime.RunTrace(s2, exec2, []runtime.Arrival{{Job: metas2[0], At: 0}}, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	without := fmt.Sprint(exec2.Results()[1].Output)
	if withAgg != without {
		t.Error("partial aggregation changed the final result")
	}
}

// A combiner that folds meets a value it cannot absorb in the middle of
// the merged task, not after it: fault isolation must hold there too.
// The job dies, the job sharing its scan does not notice.
func TestRejectedFoldKillsOnlyItsJob(t *testing.T) {
	store, plan, alone, metas := realSetup(t, 8, 2)
	if _, err := runtime.RunTrace(core.New(plan, nil), alone, []runtime.Arrival{{Job: metas[0], At: 0}}, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	bad := workload.WordCountJob("bad", "corpus", "", 2)
	bad.Mapper = mapreduce.MapperFunc(func(_ dfs.BlockID, _ []byte, emit mapreduce.Emit) error {
		emit(mapreduce.KV{Key: "w", Value: "1"})
		emit(mapreduce.KV{Key: "w", Value: "many"})
		return nil
	})
	exec := mapreduce.NewExecutor(mapreduce.NewEngine(mapreduce.MustCluster(store, 1)), map[scheduler.JobID]mapreduce.JobSpec{
		1: workload.WordCountJob("wc0", "corpus", workload.DistinctPrefixes(1)[0], 2),
		2: bad,
	})
	res, err := runtime.RunTrace(core.New(plan, nil), exec, []runtime.Arrival{{Job: metas[0], At: 0}, {Job: metas[1], At: 0}}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Metrics.ResponseTime(2); err == nil || res.Metrics.FaultStats().FailedJobs != 1 || len(res.Metrics.Incomplete()) != 0 {
		t.Fatalf("job 2 completed: %v; %d jobs failed, %v incomplete; want job 2 alone failed", err == nil, res.Metrics.FaultStats().FailedJobs, res.Metrics.Incomplete())
	}
	if _, ok := exec.Result(2); ok {
		t.Error("the failed job has a result")
	}
	got, ok := exec.Result(1)
	if want, _ := alone.Result(1); !ok || len(got.Output) == 0 || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
		t.Error("the job sharing the failed job's scan lost or changed its output")
	}
}

func TestEngineExecutorUnknownJob(t *testing.T) {
	_, plan, exec, _ := realSetup(t, 4, 1)
	s := core.New(plan, nil)
	ghost := scheduler.JobMeta{ID: 99, File: "corpus"}
	if _, err := runtime.RunTrace(s, exec, []runtime.Arrival{{Job: ghost, At: 0}}, runtime.Options{}); err == nil {
		t.Error("job without a registered spec should fail")
	}
}

func TestEngineExecutorTimeScale(t *testing.T) {
	_, _, exec, _ := realSetup(t, 4, 1)
	exec.SetTimeScale(100)
	defer func() {
		if recover() == nil {
			t.Error("non-positive scale should panic")
		}
	}()
	exec.SetTimeScale(0)
}

// TestResultsReadableMidRun: under pipelined execution reduce stages
// commit results from pool goroutines while the round loop's hooks look
// finished jobs up, so Result and Results must be safe against those
// writers. Meaningful under -race.
func TestResultsReadableMidRun(t *testing.T) {
	_, plan, exec, metas := realSetup(t, 8, 6)
	exec.SetTimeScale(1e6)
	arrivals := make([]runtime.Arrival, len(metas))
	for i, m := range metas {
		arrivals[i] = runtime.Arrival{Job: m, At: vclock.Time(i)}
	}
	seen := 0
	opts := runtime.Options{Pipeline: true, ReduceWorkers: 4}
	opts.Hooks.OnRoundDone = func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
		for _, id := range completed {
			if _, ok := exec.Result(id); !ok {
				t.Errorf("job %d completed with no Result", id)
			}
			if _, ok := exec.Results()[id]; !ok {
				t.Errorf("job %d completed but is missing from Results", id)
			}
			seen++
		}
	}
	if _, err := runtime.RunTrace(core.New(plan, nil), exec, arrivals, opts); err != nil {
		t.Fatal(err)
	}
	if seen != len(metas) {
		t.Errorf("saw %d completions, want %d", seen, len(metas))
	}
}
