package experiments

import (
	"testing"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// TestPaperClaimsAllHold pins the shipped calibration: every encoded
// qualitative claim from the paper's Figure 4 discussion must hold.
// The simulator is deterministic, so this is a stable regression gate;
// if a cost-model change breaks it, rerun `s3bench calibrate`.
func TestPaperClaimsAllHold(t *testing.T) {
	panels, err := RunAllPanels(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	violations := CheckPaperClaims(panels)
	for _, v := range violations {
		t.Errorf("claim violated: %s", v)
	}
	if n := NumPaperClaims(); n < 20 {
		t.Errorf("only %d claims encoded; expected the full set", n)
	}
}

func TestPanelBasics(t *testing.T) {
	res, err := Fig4Panel("a", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig4a" {
		t.Errorf("ID = %q", res.ID)
	}
	if len(res.Schemes) != 5 {
		t.Errorf("schemes = %d, want 5", len(res.Schemes))
	}
	for name, sr := range res.Schemes {
		if sr.Summary.TET <= 0 || sr.Summary.ART <= 0 {
			t.Errorf("%s: non-positive metrics %+v", name, sr.Summary)
		}
		if sr.Result.Rounds <= 0 || sr.Stats.BlocksScanned <= 0 {
			t.Errorf("%s: no work recorded: %+v", name, sr)
		}
	}
	// The shared-scan point, measured: S3 scans far fewer blocks than
	// FIFO for the same ten jobs.
	s3Scans := res.Schemes["s3"].Stats.BlocksScanned
	fifoScans := res.Schemes["fifo"].Stats.BlocksScanned
	if s3Scans*2 > fifoScans {
		t.Errorf("S3 scanned %d blocks vs FIFO %d; expected <= half", s3Scans, fifoScans)
	}
}

func TestFig4PanelUnknown(t *testing.T) {
	if _, err := Fig4Panel("z", DefaultParams()); err == nil {
		t.Error("unknown panel should fail")
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(0, 64, NormalModel()); err == nil {
		t.Error("zero input should fail")
	}
	if _, err := NewEnv(160, 0, NormalModel()); err == nil {
		t.Error("zero block size should fail")
	}
	env, err := NewEnv(160, 64, NormalModel())
	if err != nil {
		t.Fatal(err)
	}
	if env.Plan.NumSegments() != 64 {
		t.Errorf("segments = %d, want 64 (2560 blocks / 40 slots)", env.Plan.NumSegments())
	}
	if env.Plan.File().NumBlocks != 2560 {
		t.Errorf("blocks = %d, want 2560", env.Plan.File().NumBlocks)
	}
}

func TestRunPanelArityMismatch(t *testing.T) {
	env, err := NewEnv(160, 64, NormalModel())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunPanel("x", env, nil, DefaultParams().SparsePattern(), PaperSchemes())
	if err == nil {
		t.Error("meta/time arity mismatch should fail")
	}
}

// A single normal job alone must take roughly the paper's Table I
// anchor: ~240 s.
func TestSingleJobAnchor(t *testing.T) {
	p := DefaultParams()
	env, err := NewEnv(WordcountGB, 64, p.Model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPanel("anchor", env,
		[]scheduler.JobMeta{{ID: 1, File: "input", Weight: 1, ReduceWeight: 1}},
		[]vclock.Time{0},
		schemes("s3"))
	if err != nil {
		t.Fatal(err)
	}
	tet := res.Schemes["s3"].Summary.TET.Seconds()
	if tet < 200 || tet > 290 {
		t.Errorf("single job = %.0fs, want ~240s (paper Table I)", tet)
	}
}

func TestNamedPanelWrappers(t *testing.T) {
	// Every panel of Figure 4 runs under the default parameters.
	for _, panel := range []string{"a", "b", "c", "d", "e", "f"} {
		res, err := Fig4Panel(panel, DefaultParams())
		if err != nil {
			t.Fatalf("panel %s: %v", panel, err)
		}
		if res.ID != "fig4"+panel || len(res.Schemes) != 5 {
			t.Errorf("panel %s: ID=%q schemes=%d", panel, res.ID, len(res.Schemes))
		}
	}
}
