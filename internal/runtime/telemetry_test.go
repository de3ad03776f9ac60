package runtime

import (
	"bytes"
	"fmt"
	"sort"
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
func telemetryRun(t *testing.T, pipeline bool, n, segments int, staggered bool) (*Result, *trace.Log, *metrics.Registry) {
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
		Pipeline: pipeline,
		Spans:    log,
		Metrics:  metrics.NewRunMetrics(reg),
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
// traces) across two runs, in both execution modes.
func TestMetricsSnapshotByteIdentical(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		render := func() (string, string) {
			_, log, reg := telemetryRun(t, pipeline, 4, 6, true)
			var chrome bytes.Buffer
			if err := log.WriteChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			return promText(t, reg), chrome.String()
		}
		prom1, chrome1 := render()
		prom2, chrome2 := render()
		if prom1 != prom2 {
			t.Errorf("pipeline=%v: metric snapshots differ between identical runs:\n%s\n----\n%s",
				pipeline, prom1, prom2)
		}
		if chrome1 != chrome2 {
			t.Errorf("pipeline=%v: chrome traces differ between identical runs", pipeline)
		}
	}
}

// spanPaths canonicalizes a span tree into sorted root-to-leaf labeled
// paths, discarding times — the "modulo wall ordering" view two
// execution modes of one workload must agree on.
func spanPaths(spans []trace.Span) []string {
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	label := func(s trace.Span) string {
		args := ""
		for _, a := range s.Args {
			args += "," + a.Key + "=" + a.Value
		}
		return fmt.Sprintf("%s(job=%d,seg=%d%s)", s.Name, s.Job, s.Segment, args)
	}
	var path func(s trace.Span) string
	path = func(s trace.Span) string {
		if s.Parent == 0 {
			return label(s)
		}
		p, ok := byID[s.Parent]
		if !ok {
			return "?/" + label(s)
		}
		return path(p) + "/" + label(s)
	}
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		out = append(out, path(s))
	}
	sort.Strings(out)
	return out
}

// stripLines drops exposition lines for metrics whose values
// legitimately depend on wall placement of stages (response times and
// the final clock), leaving everything both modes must agree on.
func stripLines(prom string, drop ...string) string {
	var keep []string
Line:
	for _, line := range strings.Split(prom, "\n") {
		for _, d := range drop {
			if strings.Contains(line, d) {
				continue Line
			}
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestSerialPipelinedTelemetryParity: with simultaneous arrivals the
// two modes form identical rounds, so everything but absolute
// completion times must match — identical span trees (modulo wall
// ordering) and identical job-level histograms: rounds-per-job, batch
// widths, per-round scan/reduce/total work, waiting times, and all
// counters. Response times and the final virtual clock differ (that
// is pipelining's whole point) and are excluded.
func TestSerialPipelinedTelemetryParity(t *testing.T) {
	for _, tc := range []struct{ n, segments int }{{1, 4}, {3, 5}, {5, 8}} {
		serialRes, serialLog, serialReg := telemetryRun(t, false, tc.n, tc.segments, false)
		pipedRes, pipedLog, pipedReg := telemetryRun(t, true, tc.n, tc.segments, false)

		if serialRes.Rounds != pipedRes.Rounds {
			t.Fatalf("n=%d k=%d: rounds %d (serial) != %d (pipelined)",
				tc.n, tc.segments, serialRes.Rounds, pipedRes.Rounds)
		}
		sp, pp := spanPaths(serialLog.Spans()), spanPaths(pipedLog.Spans())
		if fmt.Sprint(sp) != fmt.Sprint(pp) {
			t.Errorf("n=%d k=%d: span trees differ\nserial:\n  %s\npipelined:\n  %s",
				tc.n, tc.segments, strings.Join(sp, "\n  "), strings.Join(pp, "\n  "))
		}
		drop := []string{"s3_job_response_seconds", "s3_virtual_time_seconds"}
		sProm := stripLines(promText(t, serialReg), drop...)
		pProm := stripLines(promText(t, pipedReg), drop...)
		if sProm != pProm {
			t.Errorf("n=%d k=%d: job-level histograms differ\nserial:\n%s\npipelined:\n%s",
				tc.n, tc.segments, sProm, pProm)
		}
	}
}

// TestSerialStageSplitIsSemanticallyInert: attaching telemetry makes
// the serial loop drive the executor via ExecMapStage+stage instead of
// ExecRound; timings and results must not move.
func TestSerialStageSplitIsSemanticallyInert(t *testing.T) {
	run := func(withTelemetry bool) *Result {
		store := dfs.MustStore(5, 1)
		f, err := store.AddMetaFile("input", 5, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		exec := sim.NewExecutor(sim.NewCluster(5, 1), store, telemetryModel)
		arrivals := []Arrival{{Job: job(1), At: 0}, {Job: job(2), At: 4}}
		opts := Options{}
		if withTelemetry {
			opts.Spans = trace.MustNew(1024)
		}
		res, err := RunTrace(core.New(plan, nil), exec, arrivals, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, telem := run(false), run(true)
	pTET, _ := plain.Metrics.TET()
	tTET, _ := telem.Metrics.TET()
	pART, _ := plain.Metrics.ART()
	tART, _ := telem.Metrics.ART()
	if pTET != tTET || pART != tART || plain.Rounds != telem.Rounds {
		t.Fatalf("telemetry changed the run: TET %v→%v ART %v→%v rounds %d→%d",
			pTET, tTET, pART, tART, plain.Rounds, telem.Rounds)
	}
}

// TestTelemetrySpanHierarchy pins the recorded tree's shape: one run
// root; one round span per round, each with scan-stage, reduce-stage
// and one subjob per batched job.
func TestTelemetrySpanHierarchy(t *testing.T) {
	res, log, reg := telemetryRun(t, true, 2, 3, false)
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
