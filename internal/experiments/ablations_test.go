package experiments

import (
	"path/filepath"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
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

func TestJitterStudyS3Robust(t *testing.T) {
	res, err := JitterStudy(DefaultParams(), 20, 0.15, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("summaries = %+v", res)
	}
	for _, s := range res {
		// S^3 keeps a mean advantage on ART across +-15% arrival
		// perturbation — its win is not a calibration knife-edge.
		if s.MeanART <= 1.0 {
			t.Errorf("%s mean ART ratio = %.3f, want > 1 (S3 advantage)", s.Scheme, s.MeanART)
		}
		// And S^3 wins ART in the large majority of trials.
		if s.S3WinsART*10 < s.Trials*8 {
			t.Errorf("%s: S3 won ART in only %d/%d trials", s.Scheme, s.S3WinsART, s.Trials)
		}
		if s.MinTET > s.MaxTET || s.MinART > s.MaxART {
			t.Errorf("%s: inconsistent min/max %+v", s.Scheme, s)
		}
	}
	if _, err := JitterStudy(DefaultParams(), 0, 0.1, 1); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := JitterStudy(DefaultParams(), 1, 1.5, 1); err == nil {
		t.Error("spread >= 1 should fail")
	}
}

func TestPoissonStudyQueueingShape(t *testing.T) {
	points, err := PoissonStudy(DefaultParams(), []float64{0.3, 0.8, 1.5}, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// FIFO's ART penalty grows with offered load; S3's stays bounded.
	for i := 1; i < len(points); i++ {
		if points[i].ARTRatio <= points[i-1].ARTRatio*0.9 {
			t.Errorf("ART ratio should grow with load: %.2f -> %.2f at rho %.1f",
				points[i-1].ARTRatio, points[i].ARTRatio, points[i].Rho)
		}
	}
	// At overload (rho > 1) FIFO must be far worse.
	last := points[len(points)-1]
	if last.ARTRatio < 1.5 {
		t.Errorf("at rho=%.1f FIFO/S3 ART = %.2f, want >= 1.5", last.Rho, last.ARTRatio)
	}
	// At light load both schemes approach one job time.
	first := points[0]
	if first.ARTRatio > 1.6 {
		t.Errorf("at rho=%.1f FIFO/S3 ART = %.2f, want mild", first.Rho, first.ARTRatio)
	}
	if _, err := PoissonStudy(DefaultParams(), nil, 5, 1); err == nil {
		t.Error("no load points should fail")
	}
	if _, err := PoissonStudy(DefaultParams(), []float64{-1}, 5, 1); err == nil {
		t.Error("negative rho should fail")
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
