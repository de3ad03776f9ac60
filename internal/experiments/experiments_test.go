package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite bench/fig4-*.jsonl and their baselines from Fig4Workload")

// fig4Titles head each committed bench/fig4-<panel>.jsonl.
var fig4Titles = map[string]string{
	"a": "sparse pattern, normal workload, 64 MB blocks",
	"b": "dense pattern, normal workload, 64 MB blocks",
	"c": "sparse pattern, heavy workload (map weight 14, reduce weight 25), 64 MB blocks",
	"d": "sparse pattern, normal workload, 128 MB blocks",
	"e": "sparse pattern, normal workload, 32 MB blocks",
	"f": "selection workload (TPC-H lineitem, 400 GB, 10 % selectivity), 64 MB blocks",
}

// fig4Schemes are the cells of every bench/fig4-<panel>-baseline.json:
// the paper's five (PaperSchemes) plus ablations X2 (S^3 without dynamic
// sub-job adjustment, §IV-D2) and X5 (without the circular scan, §IV-B).
var fig4Schemes = []string{"s3", "fifo", "mrs1=mrshare", "mrs2=mrshare:6:4", "mrs3=mrshare:3:3:4", "s3-static", "s3-nocircular"}

// fig4Options is the sub-matrix CI gates the fig4 files at: every
// scheme of Figure 4 plus ablations X2 and X5, sim cells.
func fig4Options() CompareOptions {
	return CompareOptions{Schedulers: fig4Schemes}
}

// fig4Reports runs the six committed Figure 4 files, keyed by panel.
func fig4Reports(t *testing.T) map[string]*benchfmt.Report {
	t.Helper()
	reports := make(map[string]*benchfmt.Report)
	for _, panel := range Fig4Panels() {
		rep, err := RunCompare(committedWorkload(t, "fig4-"+panel), fig4Options())
		if err != nil {
			t.Fatalf("fig4-%s: %v", panel, err)
		}
		reports[panel] = rep
	}
	return reports
}

// TestFig4FilesMatchGenerator: each committed bench/fig4-<panel>.jsonl
// is Fig4Workload(panel, DefaultParams()), so s3bench calibrate scores
// exactly what CI gates. -update rewrites the files and, from fresh
// runs of them, their baselines.
func TestFig4FilesMatchGenerator(t *testing.T) {
	for _, panel := range Fig4Panels() {
		wf, err := Fig4Workload(panel, DefaultParams())
		if err != nil {
			t.Fatalf("panel %s: %v", panel, err)
		}
		if *update {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "# Figure 4(%s) of the paper (§V-D..G): %s.\n#\n", panel, fig4Titles[panel])
			fmt.Fprintf(&buf, "# Fig4Workload(%q, DefaultParams()) in internal/experiments wrote this file;\n", panel)
			buf.WriteString("# `go test ./internal/experiments -run TestFig4FilesMatchGenerator -update`\n")
			buf.WriteString("# rewrites it and its baseline. Metadata-only content at paper scale\n")
			buf.WriteString("# (40 nodes, one block per map slot): sim cells only. CI gates it with\n")
			fmt.Fprintf(&buf, "#   s3compare -workload bench/fig4-%s.jsonl -schedulers %s\n", panel, strings.Join(fig4Schemes, ","))
			if err := wf.Serialize(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("..", "..", "bench", "fig4-"+panel+".jsonl"), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := RunCompare(wf, fig4Options())
			if err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if err := rep.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("..", "..", "bench", "fig4-"+panel+"-baseline.json"), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := committedWorkload(t, "fig4-"+panel).Digest(), wf.Digest(); got != want {
			t.Errorf("bench/fig4-%s.jsonl digests %.12s, Fig4Workload %.12s (refresh with -update)", panel, got, want)
		}
	}
}

// TestPaperClaimsAllHold pins the shipped calibration: every encoded
// qualitative claim from the paper's Figure 4 discussion must hold on
// fresh runs of the committed panel files. The simulator is
// deterministic, so this is a stable regression gate; if a cost-model
// change breaks it, rerun `s3bench calibrate`.
func TestPaperClaimsAllHold(t *testing.T) {
	for _, v := range CheckPaperClaims(fig4Reports(t)) {
		t.Errorf("claim violated: %s", v)
	}
	if n := NumPaperClaims(); n < 20 {
		t.Errorf("only %d claims encoded; expected the full set", n)
	}
}

// TestPaperClaimsNeverHoldVacuously: a claim over a cell or panel the
// reports lack is violated, and says which cell it missed. Over zeros,
// "S3 has the lowest TET" would hold.
func TestPaperClaimsNeverHoldVacuously(t *testing.T) {
	reports := fig4Reports(t)
	a := reports["a"]
	kept := a.Cells[:0]
	for _, c := range a.Cells {
		if c.Key.Scheduler != "s3" {
			kept = append(kept, c)
		}
	}
	a.Cells = kept
	delete(reports, "f")
	violations := strings.Join(CheckPaperClaims(reports), "\n")
	for _, want := range []string{"a1: ", "no cell fig4-a/s3", "f1: ", "fig4-f/s3", "d1: "} {
		if !strings.Contains(violations, want) {
			t.Errorf("violations lack %q:\n%s", want, violations)
		}
	}
	if strings.Contains(violations, "b4: ") {
		t.Errorf("b4 reads neither fig4-a/s3 nor fig4-f, yet is violated:\n%s", violations)
	}
}

// TestPanelBasics: every cell of fig4-a ran all ten jobs, and the
// shared-scan point holds as measured — S3 rides at most half the scan
// rounds FIFO does for the same jobs.
func TestPanelBasics(t *testing.T) {
	rep := fig4Reports(t)["a"]
	if len(rep.Cells) != len(fig4Schemes) {
		t.Fatalf("fig4-a has %d cells, want %d", len(rep.Cells), len(fig4Schemes))
	}
	for _, c := range rep.Cells {
		if c.TET <= 0 || c.ART <= 0 || c.Rounds <= 0 || len(c.Jobs) != NumJobs {
			t.Errorf("%s: degenerate cell %+v", c.Key, c)
		}
	}
	s3 := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	fifo := rep.Cell(benchfmt.CellKey{Scheduler: "fifo", Engine: benchfmt.EngineSim})
	if s3.Rounds*2 > fifo.Rounds {
		t.Errorf("S3 rode %d rounds vs FIFO %d; expected <= half", s3.Rounds, fifo.Rounds)
	}
}

func TestFig4PanelUnknown(t *testing.T) {
	if _, err := Fig4Workload("z", DefaultParams()); err == nil {
		t.Error("unknown panel should fail")
	}
}

// A single normal job alone must take roughly the paper's Table I
// anchor: ~240 s.
func TestSingleJobAnchor(t *testing.T) {
	wf, err := Fig4Workload("a", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := simCells(arrivingAt(wf, []vclock.Time{0}), "s3")
	if err != nil {
		t.Fatal(err)
	}
	if s := cells[0].TET; s < 200 || s > 290 {
		t.Errorf("single job = %.0fs, want ~240s (paper Table I)", s)
	}
}
