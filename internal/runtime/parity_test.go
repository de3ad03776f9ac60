package runtime_test

import (
	"bytes"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
)

// parityModel prices every cost component so both stages are
// non-trivial.
var parityModel = sim.CostModel{
	ScanMBps:       40,
	TaskOverhead:   0.5,
	RoundOverhead:  0.3,
	JobSetup:       0.2,
	SharePenalty:   0.01,
	ReducePerRound: 0.6,
	ReduceSetup:    0.2,
}

func parityMeta(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: "input", Weight: 1, ReduceWeight: 1}
}

func parityPlan(t *testing.T, segments int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(segments, 1)
	f, err := store.AddMetaFile("input", segments, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func parityExec(t *testing.T, segments int) *sim.Executor {
	t.Helper()
	store := dfs.MustStore(segments, 1)
	if _, err := store.AddMetaFile("input", segments, 64<<20); err != nil {
		t.Fatal(err)
	}
	return sim.NewExecutor(sim.NewCluster(segments, 1), store, parityModel)
}

// TestLiveSourceMatchesTraceAtTimeZero: a LiveSource without a clock,
// pre-filled before the run, and RunTrace's with every arrival at t=0
// are indistinguishable in metrics and results — stamping a job when it
// is popped costs nothing when jobs are already waiting at startup.
func TestLiveSourceMatchesTraceAtTimeZero(t *testing.T) {
	const segments, jobs = 6, 3
	runVia := func(live bool) (string, *runtime.Result) {
		reg := metrics.NewRegistry()
		opts := runtime.Options{Metrics: metrics.NewRunMetrics(reg)}
		sched := core.New(parityPlan(t, segments), nil)
		exec := parityExec(t, segments)
		var res *runtime.Result
		var err error
		if live {
			src := runtime.NewLiveSource()
			for i := 0; i < jobs; i++ {
				if _, err := src.SubmitWith(parityMeta(i+1), nil); err != nil {
					t.Fatal(err)
				}
			}
			src.Close()
			res, err = runtime.Run(sched, exec, src, opts)
		} else {
			arrivals := make([]runtime.Arrival, jobs)
			for i := range arrivals {
				arrivals[i] = runtime.Arrival{Job: parityMeta(i + 1), At: 0}
			}
			res, err = runtime.RunTrace(sched, exec, arrivals, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return prom.String(), res
	}
	promTrace, resTrace := runVia(false)
	promLive, resLive := runVia(true)
	if promTrace != promLive {
		t.Errorf("live and trace sources diverge:\n%s\n----\n%s", promTrace, promLive)
	}
	if resTrace.Rounds != resLive.Rounds || resTrace.End != resLive.End {
		t.Errorf("results diverge: trace %d/%v live %d/%v",
			resTrace.Rounds, resTrace.End, resLive.Rounds, resLive.End)
	}
}
