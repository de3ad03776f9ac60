package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

func TestAblationSlotChecking(t *testing.T) {
	res, err := AblationSlotChecking(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	nocheck, ok1 := rowOf(res, "s3-nocheck")
	checked, ok2 := rowOf(res, "s3-slotcheck")
	if !ok1 || !ok2 {
		t.Fatalf("rows missing: %+v", res)
	}
	// Excluding the 0.25x straggler must beat being paced by it.
	if checked.TET >= nocheck.TET {
		t.Errorf("slot checking TET %v not better than straggler-paced %v", checked.TET, nocheck.TET)
	}
	if checked.ART >= nocheck.ART {
		t.Errorf("slot checking ART %v not better than straggler-paced %v", checked.ART, nocheck.ART)
	}
	// And the improvement must be substantial (straggler is 4x slow;
	// excluding it roughly halves TET).
	if nocheck.TET.Seconds() < 1.8*checked.TET.Seconds() {
		t.Errorf("gain too small: %v vs %v", nocheck.TET, checked.TET)
	}
}

// TestAblationDynAdjust (X2) on fig4-a's cells: parking arrivals until
// the queue manager drains (s3-static) serializes everything — worse on
// both metrics, with strictly more scan rounds than S3.
func TestAblationDynAdjust(t *testing.T) {
	rep := fig4Reports(t)["a"]
	dyn := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	static := rep.Cell(benchfmt.CellKey{Scheduler: "s3-static", Engine: benchfmt.EngineSim})
	if static.TET <= dyn.TET || static.ART <= dyn.ART {
		t.Errorf("static (%.3f/%.3f) should lose to dynamic (%.3f/%.3f)", static.TET, static.ART, dyn.TET, dyn.ART)
	}
	if static.Rounds <= dyn.Rounds {
		t.Errorf("static rounds %d should exceed dynamic %d", static.Rounds, dyn.Rounds)
	}
}

// TestAblationSegmentSize (X4): fig4-a's s3 cell at segments of 20, 40
// and 80 blocks — below, at and above the cluster's 40 map slots
// (§IV-B says equal is ideal). The s3compare goldens pin the numbers;
// this holds them to the claim.
func TestAblationSegmentSize(t *testing.T) {
	tet := make(map[int]float64)
	art := make(map[int]float64)
	for per, wf := range map[int]*workload.File{
		20: parseWorkload(t, filepath.Join("..", "..", "cmd", "s3compare", "testdata", "seg-20.jsonl")),
		40: committedWorkload(t, "fig4-a"),
		80: parseWorkload(t, filepath.Join("..", "..", "cmd", "s3compare", "testdata", "seg-80.jsonl")),
	} {
		if got := wf.Files[0].SegmentBlocks; got != per {
			t.Fatalf("%s cuts segments of %d blocks, want %d", wf.Header.Name, got, per)
		}
		cells, err := simCells(wf, "s3")
		if err != nil {
			t.Fatal(err)
		}
		tet[per], art[per] = cells[0].TET, cells[0].ART
	}
	// Half-width segments leave half the cluster idle every round
	// while doubling per-round overheads: strictly worse TET.
	if tet[20] <= tet[40] {
		t.Errorf("seg-20 TET %.2f should exceed ideal seg-40 %.2f", tet[20], tet[40])
	}
	// Double-width segments trade admission granularity against
	// per-round overhead amortization; the two nearly cancel, so both
	// metrics stay within 25% of the ideal either way.
	if r := tet[80] / tet[40]; r > 1.25 || r < 0.8 {
		t.Errorf("seg-80 TET %.2f too far from ideal %.2f", tet[80], tet[40])
	}
	if r := art[80] / art[40]; r > 1.25 || r < 0.8 {
		t.Errorf("seg-80 ART %.2f too far from ideal %.2f", art[80], art[40])
	}
}

// TestAblationCircularScan (X5) on fig4-a's cells: a job that cannot
// join mid-pass (s3-nocircular restarts every pass at the beginning)
// waits, and pays for it on both metrics.
func TestAblationCircularScan(t *testing.T) {
	rep := fig4Reports(t)["a"]
	circ := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	restart := rep.Cell(benchfmt.CellKey{Scheduler: "s3-nocircular", Engine: benchfmt.EngineSim})
	if restart.ART <= circ.ART {
		t.Errorf("restart-at-beginning ART %.3f should exceed circular %.3f", restart.ART, circ.ART)
	}
	if restart.TET <= circ.TET {
		t.Errorf("restart-at-beginning TET %.3f should exceed circular %.3f", restart.TET, circ.TET)
	}
}

func TestAblationPartialAgg(t *testing.T) {
	res, err := AblationPartialAgg()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := rowOf(res, "no-partial-agg")
	agg, _ := rowOf(res, "partial-agg")
	// Identical outputs…
	if plain.Extra["outputRecords"] != agg.Extra["outputRecords"] {
		t.Errorf("output records differ: %v vs %v", plain.Extra["outputRecords"], agg.Extra["outputRecords"])
	}
	// …with much less data entering the reduce phase.
	if agg.Extra["reduceInputRecords"] >= plain.Extra["reduceInputRecords"] {
		t.Errorf("partial agg reduce input %v not below plain %v",
			agg.Extra["reduceInputRecords"], plain.Extra["reduceInputRecords"])
	}
}

func TestAllAblations(t *testing.T) {
	res, err := AllAblations(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("ablations = %d, want 2", len(res))
	}
	seen := map[string]bool{}
	for _, a := range res {
		if a.String() == "" || len(a.Rows) < 2 {
			t.Errorf("ablation %s incomplete", a.ID)
		}
		seen[a.ID] = true
	}
	for _, id := range []string{"X1", "X3"} {
		if !seen[id] {
			t.Errorf("missing ablation %s", id)
		}
	}
}

// TestWindowStudy: the beyond-paper window study (s3compare's window
// golden): no window length recovers S^3's response times — short
// windows forfeit sharing, long ones re-create MRShare's waiting.
func TestWindowStudy(t *testing.T) {
	cells, err := simCells(committedWorkload(t, "fig4-a"),
		"s3", "window-30=window:30:10", "window-120=window:120:10", "window-480=window:480:10")
	if err != nil {
		t.Fatal(err)
	}
	s3 := cells[0]
	for _, c := range cells[1:] {
		if c.ART <= s3.ART {
			t.Errorf("%s ART %.2f should exceed S3 %.2f", c.Key.Scheduler, c.ART, s3.ART)
		}
	}
}

// TestJitterStudyS3Robust: Figure 4(a) with every arrival moved by a
// seeded ±15 % factor, forty times (cmd/s3compare/testdata/jitter/),
// gives EXPERIMENTS.md's table to the digit. S³ wins ART in every trial
// against both schemes, so its advantage is no calibration knife-edge;
// its TET margin over MRS3 is thin and flips in about half of them.
func TestJitterStudyS3Robust(t *testing.T) {
	files := studyFiles(t, "jitter/trial-*.jsonl")
	if len(files) != 40 {
		t.Fatalf("%d jitter trials, want 40", len(files))
	}
	want := []struct{ scheme, tet, art, wins string }{
		{"fifo", "2.94 [2.76, 3.18]", "3.77 [3.70, 3.82]", "40/40, 40/40"},
		{"mrs3", "1.01 [0.98, 1.09]", "1.13 [1.07, 1.20]", "21/40, 40/40"},
	}
	type ratios struct {
		tet, art         []float64
		winsTET, winsART int
	}
	got := make([]ratios, len(want))
	for _, wf := range files {
		cells, err := simCells(wf, "s3", "fifo", "mrs3=mrshare:3:3:4")
		if err != nil {
			t.Fatal(err)
		}
		s3 := cells[0]
		for i, c := range cells[1:] {
			r := &got[i]
			r.tet = append(r.tet, c.TET/s3.TET)
			r.art = append(r.art, c.ART/s3.ART)
			if c.TET > s3.TET {
				r.winsTET++
			}
			if c.ART > s3.ART {
				r.winsART++
			}
		}
	}
	summary := func(xs []float64) string {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		return fmt.Sprintf("%.2f [%.2f, %.2f]", total/float64(len(xs)), slices.Min(xs), slices.Max(xs))
	}
	for i, w := range want {
		r := got[i]
		wins := fmt.Sprintf("%d/%d, %d/%d", r.winsTET, len(files), r.winsART, len(files))
		if summary(r.tet) != w.tet || summary(r.art) != w.art || wins != w.wins {
			t.Errorf("%s: TET/S3 %s, ART/S3 %s, S3 wins %s; EXPERIMENTS.md says %s, %s, %s",
				w.scheme, summary(r.tet), summary(r.art), wins, w.tet, w.art, w.wins)
		}
	}
}

// TestPoissonStudyQueueingShape: twenty jobs at Poisson arrivals, at
// offered loads ρ from 0.2 to 1.8 (cmd/s3compare/testdata/poisson/).
// FIFO's ART over S³'s rises with the load, while S³'s ART stays within
// 4 % of one job alone (README's claim, to its whole percent: 4.04 % at
// ρ = 1.8).
func TestPoissonStudyQueueingShape(t *testing.T) {
	solo, err := simCells(arrivingAt(committedWorkload(t, "fig4-a"), []vclock.Time{0}), "s3")
	if err != nil {
		t.Fatal(err)
	}
	files := studyFiles(t, "poisson/rho-*.jsonl")
	if len(files) != 6 {
		t.Fatalf("%d load points, want 6", len(files))
	}
	prev := 0.0
	for _, wf := range files {
		cells, err := simCells(wf, "s3", "fifo")
		if err != nil {
			t.Fatal(err)
		}
		s3, fifo := cells[0], cells[1]
		if ratio := fifo.ART / s3.ART; ratio <= prev {
			t.Errorf("%s: FIFO/S3 ART %.2f, not above the lighter load's %.2f", wf.Header.Name, ratio, prev)
		} else {
			prev = ratio
		}
		if over := math.Round(100 * (s3.ART/solo[0].TET - 1)); over > 4 {
			t.Errorf("%s: S3 ART %.3f s is %.0f %% over a solo job's %.3f s", wf.Header.Name, s3.ART, over, solo[0].TET)
		}
	}
	if prev < 4 {
		t.Errorf("at the heaviest load FIFO/S3 ART = %.2f, want FIFO's queue to have blown up", prev)
	}
}

func TestEstimatorStudyAccurate(t *testing.T) {
	res, err := EstimatorStudy(DefaultParams(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedJobs == 0 {
		t.Fatal("nothing predicted")
	}
	// The model is linear in exactly the simulator's cost terms for a
	// fixed block count, but future arrivals the estimator cannot see
	// change batch sizes; predictions should still land within 25% of
	// the jobs' actual lifetimes.
	if res.MAPE > 0.25 {
		t.Errorf("MAPE = %.3f, want <= 0.25", res.MAPE)
	}
	if res.MaxErr > 0.5 {
		t.Errorf("max error = %.3f, want <= 0.5", res.MaxErr)
	}
	if _, err := EstimatorStudy(DefaultParams(), 1); err == nil {
		t.Error("too-early observation point should fail")
	}
	if _, err := EstimatorStudy(DefaultParams(), 100000); err == nil {
		t.Error("observation point past the run should fail")
	}
}

// TestTaxonomyStudy: §II-B's scheduler taxonomy measured on the sparse
// normal workload (s3compare's taxonomy golden: -schedulers fifo,fair,s3).
func TestTaxonomyStudy(t *testing.T) {
	cells, err := simCells(committedWorkload(t, "fig4-a"), "fifo", "fair", "s3")
	if err != nil {
		t.Fatal(err)
	}
	fifo, fair, s3 := cells[0], cells[1], cells[2]
	// Fair scheduling runs every scan separately, so its TET stays at
	// FIFO's level — §II-B's "this misses sharing opportunities".
	if r := fair.TET / fifo.TET; r < 0.95 || r > 1.05 {
		t.Errorf("fair TET %.2f should equal FIFO's %.2f (no sharing either way)", fair.TET, fifo.TET)
	}
	// For identical-length jobs, processor sharing is pessimal for
	// mean response time (everyone finishes late), so fair does NOT
	// beat FIFO on ART here — its §II-B responsiveness case needs
	// heterogeneous job lengths, which the single-shared-file context
	// rules out. The measurement pins that finding.
	if fair.ART <= fifo.ART {
		t.Errorf("fair ART %.2f unexpectedly beat FIFO %.2f for identical jobs", fair.ART, fifo.ART)
	}
	// S^3 beats both categories on both metrics.
	if s3.TET >= fair.TET || s3.ART >= fair.ART || s3.TET >= fifo.TET || s3.ART >= fifo.ART {
		t.Errorf("S3 (%.2f/%.2f) should beat fair (%.2f/%.2f) and FIFO (%.2f/%.2f)",
			s3.TET, s3.ART, fair.TET, fair.ART, fifo.TET, fifo.ART)
	}
}

func TestDynamicS3MatchesS3OnHomogeneousCluster(t *testing.T) {
	// With every node healthy, DynamicS3's adaptive segments are
	// exactly the fixed plan's segments, so both schedulers must
	// produce identical metrics on Figure 4(a)'s workload.
	wf := committedWorkload(t, "fig4-a")
	nodes := make([]dfs.NodeID, Nodes)
	for i := range nodes {
		nodes[i] = dfs.NodeID(i)
	}
	var sums [2]metrics.Summary
	var rounds [2]int
	for i, scheme := range []SchemeSpec{
		schemes("s3")[0],
		bare("s3-dynamic", func(plan *dfs.SegmentPlan) (scheduler.Scheduler, error) {
			return core.NewDynamic(plan.File(), nodes, SlotsPerNode, nil, nil)
		}),
	} {
		env, err := newCellEnv(wf)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheme.Make(env.plans, env.readers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.RunTrace(sched, sim.NewExecutor(env.cluster, env.store, env.model), wf.Entries(), runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sums[i], err = metrics.Summarize(res.Jobs); err != nil {
			t.Fatal(err)
		}
		rounds[i] = res.Rounds
	}
	if f, a := sums[0], sums[1]; f.TET != a.TET || f.ART != a.ART {
		t.Errorf("fixed (%v/%v) != dynamic (%v/%v)", f.TET, f.ART, a.TET, a.ART)
	}
	if rounds[0] != rounds[1] {
		t.Errorf("rounds differ: %d vs %d", rounds[0], rounds[1])
	}
}

// rowOf returns a's named row.
func rowOf(a AblationResult, name string) (AblationRow, bool) {
	for _, r := range a.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return AblationRow{}, false
}
