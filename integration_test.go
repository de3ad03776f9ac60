package s3sched_test

// Integration tests: whole-system scenarios that cross package
// boundaries — every scheduler driving the deployed master and workers,
// failure injection with adaptive re-planning, timed batching through
// the driver, and randomized cross-scheme invariants on the simulator.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// realRig boots the deployed master and perSegment in-process workers,
// each generating a corpus of `blocks` blocks, with n wordcount jobs
// registered, and plans `perSegment` blocks per segment.
func realRig(t *testing.T, blocks, perSegment, n int) (*dfs.SegmentPlan, *remote.Local, []scheduler.JobMeta) {
	t.Helper()
	stores := make([]*dfs.Store, perSegment)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", blocks, 2048, 99); err != nil {
			t.Fatal(err)
		}
	}
	f, err := stores[0].File("corpus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(map[scheduler.JobID]remote.JobRef, n)
	metas := make([]scheduler.JobMeta, n)
	for i, prefix := range workload.DistinctPrefixes(n) {
		id := scheduler.JobID(i + 1)
		jobs[id] = remote.JobRef{Name: fmt.Sprintf("wc%d", i), Factory: "wordcount", Param: prefix, NumReduce: 2}
		metas[i] = scheduler.JobMeta{ID: id, File: "corpus"}
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return plan, cluster, metas
}

// TestAllSchedulersAgreeOnResults drives the same three wordcount jobs
// through every scheduler implementation on the deployed master and
// workers; all must produce byte-identical outputs.
func TestAllSchedulersAgreeOnResults(t *testing.T) {
	type mk func(t *testing.T, plan *dfs.SegmentPlan) scheduler.Scheduler
	cases := []struct {
		name string
		mk   mk
	}{
		{"s3", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler { return core.New(p, nil) }},
		{"s3-static", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler { return core.NewStatic(p, nil) }},
		{"s3-nocircular", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler { return core.NewNoCircular(p, nil) }},
		{"fifo", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler {
			f, err := core.NewFIFO([]*dfs.SegmentPlan{p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"mrshare", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler {
			m, err := core.NewMRShare(p, []int{3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"mrshare-window", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler {
			w, err := core.NewWindowMRShare(p, 1000, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"s3-dynamic", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler {
			nodes := make([]dfs.NodeID, p.BlocksPerSegment())
			for i := range nodes {
				nodes[i] = dfs.NodeID(i)
			}
			d, err := core.NewDynamic(p.File(), nodes, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"s3-multifile", func(t *testing.T, p *dfs.SegmentPlan) scheduler.Scheduler {
			m, err := core.NewMultiFile([]*dfs.SegmentPlan{p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}

	var reference map[scheduler.JobID]string
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, cluster, metas := realRig(t, 12, 4, 3)
			arrivals := make([]runtime.Arrival, len(metas))
			for i := range metas {
				// Microseconds apart: each later job joins a run in flight.
				arrivals[i] = runtime.Arrival{Job: metas[i], At: vclock.Time(i) * 1e-6}
			}
			if _, err := runtime.RunTrace(tc.mk(t, plan), cluster, arrivals, runtime.Options{}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := make(map[scheduler.JobID]string, 3)
			for _, m := range metas {
				out, err := cluster.JobOutput(m.ID)
				if err != nil {
					t.Fatalf("%s: job %d: %v", tc.name, m.ID, err)
				}
				got[m.ID] = fmt.Sprint(out)
			}
			if reference == nil {
				reference = got
				return
			}
			for id, want := range reference {
				if got[id] != want {
					t.Errorf("%s: job %d output differs from reference", tc.name, id)
				}
			}
		})
	}
}

// observingExec wraps an executor and invokes a hook after every
// round — the "periodical slot checking" feedback path (§IV-D1).
type observingExec struct {
	inner   runtime.Executor
	round   int
	onRound func(round int)
}

func (o *observingExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	d, err := o.inner.ExecRound(r)
	o.round++
	if o.onRound != nil {
		o.onRound(o.round)
	}
	return d, err
}

// TestFailureInjectionSlotCheckerAdapts degrades a node mid-run; the
// slot checker observes it through the feedback hook, DynamicS3
// shrinks its segments, and when the node recovers the segments grow
// back. The run must complete with every job done.
func TestFailureInjectionSlotCheckerAdapts(t *testing.T) {
	const nodes = 4
	store := dfs.MustStore(nodes, 1)
	f, err := store.AddMetaFile("input", 64, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.NewCluster(nodes, 1)
	model := sim.CostModel{ScanMBps: 64}
	simExec := sim.NewExecutor(cluster, store, model)

	log := trace.MustNew(256)
	checker := core.NewSlotChecker(0.5, 1.0, log)
	all := []dfs.NodeID{0, 1, 2, 3}
	for _, n := range all {
		checker.Observe(n, 1.0, 0)
	}
	dyn, err := core.NewDynamic(f, all, 1, checker, log)
	if err != nil {
		t.Fatal(err)
	}

	// Node 2 fails down to 0.1x speed between rounds 4 and 10, then
	// recovers. The hook plays the periodic checker's role.
	exec := &observingExec{inner: simExec, onRound: func(round int) {
		switch round {
		case 4:
			cluster.SetSpeed(2, 0.1)
			checker.Observe(2, 0.1, 0)
		case 10:
			cluster.SetSpeed(2, 1.0)
			checker.Observe(2, 1.0, 0)
		}
	}}

	res, err := runtime.RunTrace(dyn, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: 30},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.TET(res.Jobs); err != nil {
		t.Fatal(err)
	}
	if exc := log.OfKind(trace.NodeExcluded); len(exc) != 1 {
		t.Errorf("exclusion events = %d, want 1", len(exc))
	}
	if rest := log.OfKind(trace.NodeRestored); len(rest) != 1 {
		t.Errorf("restore events = %d, want 1", len(rest))
	}
}

// TestWindowBatcherFiresWithoutArrivals checks the driver's Waker
// path: the last batch's window expires after the final arrival, and
// the run still completes.
func TestWindowBatcherFiresWithoutArrivals(t *testing.T) {
	store := dfs.MustStore(2, 1)
	f, err := store.AddMetaFile("input", 4, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWindowMRShare(plan, 50, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) { return 5, nil })
	res, err := runtime.RunTrace(w, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: 10},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Batch seals at t=50 (window from first arrival), runs 2 rounds
	// of 5s: both jobs complete at 60.
	if rt := res.Jobs[0].DoneAt.Sub(res.Jobs[0].AdmittedAt); res.Jobs[0].ID != 1 || rt != 60 {
		t.Errorf("job 1 response = %v, want 60 (50 window + 10 run)", rt)
	}
	if res.End != 60 {
		t.Errorf("end = %v, want 60", res.End)
	}
}

// TestMultiFileRealEngine runs wordcount and selection jobs over two
// different files through one MultiFile scheduler on the deployed master
// and workers.
func TestMultiFileRealEngine(t *testing.T) {
	stores := make([]*dfs.Store, 4)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", 8, 2048, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.AddLineitemFile(stores[i], "lineitem", 8, 8<<10, 2); err != nil {
			t.Fatal(err)
		}
	}
	var plans []*dfs.SegmentPlan
	for _, name := range []string{"corpus", "lineitem"} {
		f, err := stores[0].File(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := dfs.PlanSegments(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	m, err := core.NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := remote.StartLocal(map[scheduler.JobID]remote.JobRef{
		1: {Name: "wc", Factory: "wordcount", Param: "t", NumReduce: 2},
		2: {Name: "sel", Factory: "selection", Param: "5"},
	}, remote.NewStandardRegistry(), stores...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	res, err := runtime.RunTrace(m, cluster, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "lineitem"}, At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.TET(res.Jobs); len(res.Jobs) != 2 || err != nil {
		t.Fatalf("jobs = %+v: %v", res.Jobs, err)
	}
	for _, id := range []scheduler.JobID{1, 2} {
		if out, err := cluster.JobOutput(id); err != nil || len(out) == 0 {
			t.Errorf("job %d: %d output records, %v; want some", id, len(out), err)
		}
	}
}

// Property: under random two-group arrival patterns on a pure-scan
// cost model, (a) every scheme completes all jobs, (b) all schemes do
// the same per-job map work, (c) S^3 never loses to FIFO on ART, and
// (d) S^3 never scans more blocks than FIFO.
func TestRandomPatternsS3DominatesFIFO(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nJobs := 2 + rng.Intn(4)
		k := 4 + rng.Intn(6) // segments

		runScheme := func(mk func(p *dfs.SegmentPlan) scheduler.Scheduler) (art float64, scans int64, tasks int64, ok bool) {
			store := dfs.MustStore(2, 1)
			f, err := store.AddMetaFile("input", k, 64<<20)
			if err != nil {
				return 0, 0, 0, false
			}
			plan, err := dfs.PlanSegments(f, 1)
			if err != nil {
				return 0, 0, 0, false
			}
			exec := sim.NewExecutor(sim.NewCluster(1, 1), store, sim.CostModel{ScanMBps: 6.4})
			var arrivals []runtime.Arrival
			at := vclock.Time(0)
			for j := 0; j < nJobs; j++ {
				arrivals = append(arrivals, runtime.Arrival{
					Job: scheduler.JobMeta{ID: scheduler.JobID(j + 1), File: "input"},
					At:  at,
				})
				at = at.Add(vclock.Duration(rng.Intn(30)))
			}
			res, err := runtime.RunTrace(mk(plan), exec, arrivals, runtime.Options{})
			if err != nil {
				return 0, 0, 0, false
			}
			artD, err := metrics.ART(res.Jobs)
			if err != nil {
				return 0, 0, 0, false
			}
			st := exec.Stats()
			return artD.Seconds(), st.BlocksScanned, st.MapTasks, true
		}

		s3ART, s3Scans, s3Tasks, ok1 := runScheme(func(p *dfs.SegmentPlan) scheduler.Scheduler { return core.New(p, nil) })
		fifoART, fifoScans, fifoTasks, ok2 := runScheme(func(p *dfs.SegmentPlan) scheduler.Scheduler {
			f, _ := core.NewFIFO([]*dfs.SegmentPlan{p}, nil) // one plan never fails
			return f
		})
		if !ok1 || !ok2 {
			return false
		}
		if s3Tasks != fifoTasks {
			return false // same logical work regardless of scheme
		}
		if s3Scans > fifoScans {
			return false // sharing can only reduce scans
		}
		return s3ART <= fifoART+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStressManyJobs pushes 500 jobs with random arrivals through S^3
// at paper scale on the simulator: everything completes, the
// all-active-share invariant holds, and no quadratic blowup makes the
// run crawl.
func TestStressManyJobs(t *testing.T) {
	const jobs = 500
	store := dfs.MustStore(40, 1)
	f, err := store.AddMetaFile("input", 2560, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 40)
	if err != nil {
		t.Fatal(err)
	}
	s3 := core.New(plan, nil)
	exec := sim.NewExecutor(sim.NewCluster(40, 1), store, sim.CostModel{ScanMBps: 40, TaskOverhead: 2.5})

	rng := rand.New(rand.NewSource(99))
	arrivals := make([]runtime.Arrival, jobs)
	at := vclock.Time(0)
	for i := range arrivals {
		arrivals[i] = runtime.Arrival{
			Job: scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input"},
			At:  at,
		}
		at = at.Add(vclock.Duration(rng.Intn(60)))
	}
	res, err := runtime.RunTrace(s3, exec, arrivals, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.TET(res.Jobs); len(res.Jobs) != jobs || err != nil {
		t.Fatalf("jobs=%d: %v", len(res.Jobs), err)
	}
	art, err := metrics.ART(res.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: responses stay bounded (every job completes within k
	// rounds of joining; shared rounds keep the queue from diverging).
	maxRT, _ := metrics.PercentileResponse(res.Jobs, 100)
	if maxRT.Seconds() > 5*art.Seconds() {
		t.Errorf("max response %v vs ART %v: unexpected spread", maxRT, art)
	}
}
