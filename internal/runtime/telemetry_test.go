package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/sim"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// telemetryModel prices stages so both are non-trivial.
var telemetryModel = sim.CostModel{
	ScanMBps:       40,
	TaskOverhead:   0.5,
	RoundOverhead:  0.3,
	JobSetup:       0.2,
	SharePenalty:   0.01,
	ReducePerRound: 0.6,
	ReduceSetup:    0.2,
}

// telemetryRun executes a seeded sim workload with both sinks attached
// and returns everything observed.
func telemetryRun(t *testing.T, n, segments int, staggered bool) (*Result, *trace.Log, *metrics.Registry) {
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
	exec := sim.NewExecutor(sim.NewCluster(segments, 1), store, telemetryModel)
	arrivals := make([]Arrival, n)
	for i := 0; i < n; i++ {
		var at vclock.Time
		if staggered {
			at = vclock.Time(i) * 3
		}
		arrivals[i] = Arrival{Job: job(i + 1), At: at}
	}
	log := trace.MustNew(4096)
	reg := metrics.NewRegistry()
	res, err := RunTrace(core.New(plan, nil), exec, arrivals, Options{
		Spans:   log,
		Metrics: metrics.NewRunMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, log, reg
}

func promText(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsSnapshotByteIdentical is the acceptance bar: an identical
// seeded workload yields byte-identical metric snapshots (and Chrome
// traces) across two runs.
func TestMetricsSnapshotByteIdentical(t *testing.T) {
	render := func() (string, string) {
		_, log, reg := telemetryRun(t, 4, 6, true)
		var chrome bytes.Buffer
		if err := log.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		return promText(t, reg), chrome.String()
	}
	prom1, chrome1 := render()
	prom2, chrome2 := render()
	if prom1 != prom2 {
		t.Errorf("metric snapshots differ between identical runs:\n%s\n----\n%s", prom1, prom2)
	}
	if chrome1 != chrome2 {
		t.Error("chrome traces differ between identical runs")
	}
}

// TestSerialStageSplitIsSemanticallyInert: the engine runs a StageTimer's
// rounds through ExecStages, everything else through ExecRound; for the
// cost model the two must give the same run.
func TestSerialStageSplitIsSemanticallyInert(t *testing.T) {
	run := func(split bool) *Result {
		store := dfs.MustStore(5, 1)
		f, err := store.AddMetaFile("input", 5, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		simExec := sim.NewExecutor(sim.NewCluster(5, 1), store, telemetryModel)
		var exec Executor = simExec
		if !split {
			exec = ExecutorFunc(simExec.ExecRound)
		}
		arrivals := []Arrival{{Job: job(1), At: 0}, {Job: job(2), At: 4}}
		res, err := RunTrace(core.New(plan, nil), exec, arrivals, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	whole, split := run(false), run(true)
	wTET, _ := metrics.TET(whole.Jobs)
	sTET, _ := metrics.TET(split.Jobs)
	wART, _ := metrics.ART(whole.Jobs)
	sART, _ := metrics.ART(split.Jobs)
	if wTET != sTET || wART != sART || whole.Rounds != split.Rounds {
		t.Fatalf("the stage split changed the run: TET %v→%v ART %v→%v rounds %d→%d",
			wTET, sTET, wART, sART, whole.Rounds, split.Rounds)
	}
}

// TestTelemetrySpanHierarchy pins the recorded tree's shape: one run
// root; one round span per round, each with scan-stage, reduce-stage
// and one subjob per batched job.
func TestTelemetrySpanHierarchy(t *testing.T) {
	res, log, reg := telemetryRun(t, 2, 3, false)
	spans := log.Spans()
	byID := make(map[trace.SpanID]trace.Span)
	var runs, rounds, scans, reduces, subjobs int
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case "run":
			runs++
			if s.Parent != 0 {
				t.Errorf("run span has parent %d", s.Parent)
			}
			if !s.Ended {
				t.Error("run span never ended")
			}
		case "round":
			rounds++
			if byID[s.Parent].Name != "run" {
				t.Errorf("round span parented to %q", byID[s.Parent].Name)
			}
		case "scan-stage":
			scans++
		case "reduce-stage":
			reduces++
			if byID[s.Parent].Name != "round" {
				t.Errorf("reduce-stage parented to %q", byID[s.Parent].Name)
			}
		case "subjob":
			subjobs++
			if byID[s.Parent].Name != "round" {
				t.Errorf("subjob parented to %q", byID[s.Parent].Name)
			}
			if s.Job < 0 {
				t.Error("subjob span without a job id")
			}
		default:
			t.Errorf("unexpected span %q", s.Name)
		}
	}
	if runs != 1 {
		t.Errorf("run spans = %d, want 1", runs)
	}
	if rounds != res.Rounds || scans != res.Rounds || reduces != res.Rounds {
		t.Errorf("round/scan/reduce spans = %d/%d/%d, want %d each", rounds, scans, reduces, res.Rounds)
	}
	if subjobs < res.Rounds {
		t.Errorf("subjob spans = %d, want >= %d", subjobs, res.Rounds)
	}
	// The registry agrees with the result on totals.
	prom := promText(t, reg)
	if !strings.Contains(prom, fmt.Sprintf("s3_rounds_total %d", res.Rounds)) {
		t.Errorf("rounds counter disagrees with Result.Rounds=%d:\n%s", res.Rounds, prom)
	}
	if !strings.Contains(prom, "s3_jobs_completed_total 2") {
		t.Errorf("jobs completed counter wrong:\n%s", prom)
	}
	if !strings.Contains(prom, "s3_job_response_seconds_count 2") {
		t.Errorf("response histogram count wrong:\n%s", prom)
	}
}
