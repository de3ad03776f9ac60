package runtime

import (
	"fmt"
	"testing"
	"testing/quick"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// stagedFixed is a StageExecutor whose stages take fixed durations.
type stagedFixed struct {
	mapD, redD vclock.Duration
}

func (s stagedFixed) ExecRound(scheduler.Round) (vclock.Duration, error) {
	return s.mapD + s.redD, nil
}

func (s stagedFixed) ExecMapStage(scheduler.Round) (vclock.Duration, ReduceStage, error) {
	return s.mapD, func() (vclock.Duration, error) { return s.redD, nil }, nil
}

func TestRunOptsFallsBackWithoutStageSupport(t *testing.T) {
	// ExecutorFunc is not a StageExecutor, so Pipeline:true must run the
	// serial loop and reproduce paper Example 3 exactly.
	p := makePlan(t, 10, 1)
	s := core.New(p, nil)
	res, err := RunTrace(s, fixed(10), []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 20},
	}, Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	tet, _ := res.Metrics.TET()
	art, _ := res.Metrics.ART()
	if tet != 120 || art != 100 {
		t.Errorf("fallback TET/ART = %v/%v, want 120/100", tet, art)
	}
}

func TestPipelineOverlapsReduceWithNextScan(t *testing.T) {
	// One job, 10 per-segment rounds, map 6s + reduce 4s. Serially the
	// job takes 100s. Pipelined, maps run back to back (round k maps
	// over [6k, 6k+6]) and each reduce drains under the next map, so the
	// last round retires at 9*6+6+4 = 64s.
	p := makePlan(t, 10, 1)
	serial, err := RunTrace(core.New(p, nil), stagedFixed{6, 4}, []Arrival{{Job: job(1), At: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tet, _ := serial.Metrics.TET(); tet != 100 {
		t.Fatalf("serial TET = %v, want 100", tet)
	}

	log := trace.MustNew(256)
	piped, err := RunTrace(core.New(p, nil), stagedFixed{6, 4}, []Arrival{{Job: job(1), At: 0}},
		Options{Pipeline: true, Spans: log})
	if err != nil {
		t.Fatal(err)
	}
	tet, _ := piped.Metrics.TET()
	if tet != 64 {
		t.Errorf("pipelined TET = %v, want 64", tet)
	}
	if piped.Rounds != 10 {
		t.Errorf("rounds = %d, want 10", piped.Rounds)
	}
	if piped.End != 64 {
		t.Errorf("End = %v, want 64", piped.End)
	}
	var mapEnds, reduceEnds []vclock.Time // per round, in round order
	for _, s := range log.Spans() {
		switch s.Name {
		case "scan-stage":
			mapEnds = append(mapEnds, s.End)
		case "reduce-stage":
			reduceEnds = append(reduceEnds, s.End)
		}
	}
	if len(mapEnds) != 10 || len(reduceEnds) != 10 {
		t.Fatalf("stage spans = %d scan, %d reduce, want 10 each", len(mapEnds), len(reduceEnds))
	}
	for i := range mapEnds {
		wantMapEnd := vclock.Time(6 * (i + 1))
		if mapEnds[i] != wantMapEnd || reduceEnds[i] != wantMapEnd+4 {
			t.Errorf("round %d stages end at map %v, reduce %v, want %v, %v",
				i, mapEnds[i], reduceEnds[i], wantMapEnd, wantMapEnd+4)
		}
	}
}

func TestPipelineIdleGapBetweenJobs(t *testing.T) {
	// Two 2-segment jobs far apart: per-job response time is
	// 2*6+4 = 16s (the first reduce hides under the second map), and the
	// final reduce drains during otherwise idle time.
	p := makePlan(t, 2, 1)
	res, err := RunTrace(core.New(p, nil), stagedFixed{6, 4}, []Arrival{
		{Job: job(1), At: 0},
		{Job: job(2), At: 100},
	}, Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	rt1, _ := res.Metrics.ResponseTime(1)
	rt2, _ := res.Metrics.ResponseTime(2)
	if rt1 != 16 || rt2 != 16 {
		t.Errorf("response times = %v/%v, want 16/16", rt1, rt2)
	}
	if tet, _ := res.Metrics.TET(); tet != 116 {
		t.Errorf("TET = %v, want 116", tet)
	}
	if res.End != 116 {
		t.Errorf("End = %v, want 116", res.End)
	}
}

func TestPipelineErrorInReduceStagePropagates(t *testing.T) {
	p := makePlan(t, 4, 1)
	exec := failingReduce{after: 2}
	_, err := RunTrace(core.New(p, nil), &exec, []Arrival{{Job: job(1), At: 0}},
		Options{Pipeline: true})
	if err == nil {
		t.Fatal("reduce-stage error should fail the run")
	}
}

type failingReduce struct {
	after int // fail the reduce of the (after+1)-th round
	calls int
}

func (f *failingReduce) ExecRound(scheduler.Round) (vclock.Duration, error) { return 1, nil }

func (f *failingReduce) ExecMapStage(scheduler.Round) (vclock.Duration, ReduceStage, error) {
	n := f.calls
	f.calls++
	return 1, func() (vclock.Duration, error) {
		if n == f.after {
			return 0, fmt.Errorf("reduce blew up at round %d", n)
		}
		return 1, nil
	}, nil
}

// completionOrder runs the scheduler/executor pair and returns the
// order job completions were reported in.
func completionOrder(t *testing.T, sch scheduler.Scheduler, exec Executor, arrivals []Arrival, opts Options) ([]scheduler.JobID, *Result) {
	t.Helper()
	var order []scheduler.JobID
	opts.Hooks = Hooks{
		OnRoundDone: func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
			order = append(order, completed...)
		},
	}
	res, err := RunTrace(sch, exec, arrivals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return order, res
}

// Property: on randomized arrival sequences, the pipelined runtime
// completes jobs in exactly the serial order — S^3 admits jobs in
// arrival order and every active job advances one segment per round,
// so completion order equals admission order in both modes. And when
// all jobs arrive together (identical round composition in both
// modes), pipelining never increases TET: reduces hide under scans.
//
// TET is deliberately NOT compared under staggered arrivals: because
// the pipelined runtime launches the next scan at map end, a job
// arriving during what would serially still be round N can miss
// round N+1's batch and pay an extra round. That trade is inherent to
// scan/reduce overlap, and the benchmark shows it wins on aggregate.
func TestPipelineMatchesSerialOrderProperty(t *testing.T) {
	model := sim.CostModel{
		ScanMBps:       40,
		TaskOverhead:   0.5,
		RoundOverhead:  0.3,
		JobSetup:       0.2,
		SharePenalty:   0.01,
		ReducePerRound: 0.6, // reduce-heavy so pipelining matters
		ReduceSetup:    0.2,
	}
	prop := func(n8, k8 uint8, gaps [6]uint8, simultaneous bool) bool {
		n := int(n8%5) + 1
		k := int(k8%6) + 2 // segments

		mkRun := func(pipeline bool) ([]scheduler.JobID, *Result, bool) {
			store := dfs.MustStore(k, 1)
			f, err := store.AddMetaFile("input", k, 64<<20)
			if err != nil {
				return nil, nil, false
			}
			plan, err := dfs.PlanSegments(f, 1)
			if err != nil {
				return nil, nil, false
			}
			exec := sim.NewExecutor(sim.NewCluster(k, 1), store, model)
			arrivals := make([]Arrival, n)
			at := vclock.Time(0)
			for i := 0; i < n; i++ {
				if !simultaneous {
					at += vclock.Time(gaps[i%len(gaps)]%40) / 10
				}
				arrivals[i] = Arrival{Job: job(i + 1), At: at}
			}
			var order []scheduler.JobID
			res, err := RunTrace(core.New(plan, nil), exec, arrivals, Options{
				Pipeline: pipeline,
				Hooks: Hooks{OnRoundDone: func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
					order = append(order, completed...)
				}},
			})
			if err != nil {
				return nil, nil, false
			}
			return order, res, true
		}

		serialOrder, serialRes, ok := mkRun(false)
		if !ok {
			return false
		}
		pipedOrder, pipedRes, ok := mkRun(true)
		if !ok {
			return false
		}
		if fmt.Sprint(serialOrder) != fmt.Sprint(pipedOrder) {
			return false
		}
		if simultaneous {
			if serialRes.Rounds != pipedRes.Rounds {
				return false
			}
			serialTET, _ := serialRes.Metrics.TET()
			pipedTET, _ := pipedRes.Metrics.TET()
			return pipedTET <= serialTET+1e-9
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
