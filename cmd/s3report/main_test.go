package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGoldenDiff pins the markdown diff for a fixture pair:
// testdata/regressed.json is testdata/base.json with the cache cells
// dropped (a narrower run) and the fifo/sim/- TET inflated 25%.
func TestReportGoldenDiff(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{
		"-baseline", filepath.Join("testdata", "base.json"),
		"-current", filepath.Join("testdata", "regressed.json"),
	}, &out)
	if code != 1 || err == nil {
		t.Fatalf("regressed diff: code=%d err=%v, want 1 and an error", code, err)
	}
	golden := filepath.Join("testdata", "diff.golden.md")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("diff markdown differs from golden (refresh with -update)\ngot:\n%s", out.String())
	}
	for _, needle := range []string{"REGRESSED", "missing in current"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("diff missing %q", needle)
		}
	}
}

func TestReportCleanPass(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{
		"-baseline", filepath.Join("testdata", "base.json"),
		"-current", filepath.Join("testdata", "base.json"),
	}, &out)
	if code != 0 || err != nil {
		t.Fatalf("self-compare: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "OK: ") {
		t.Fatalf("no OK line:\n%s", out.String())
	}
}

// A looser threshold lets the 25% regression through.
func TestReportThresholdFlag(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{
		"-baseline", filepath.Join("testdata", "base.json"),
		"-current", filepath.Join("testdata", "regressed.json"),
		"-threshold", "0.30",
	}, &out)
	if code != 0 || err != nil {
		t.Fatalf("30%% threshold: code=%d err=%v", code, err)
	}
}

func TestReportWritesMarkdownFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.md")
	var out bytes.Buffer
	code, _ := run([]string{
		"-baseline", filepath.Join("testdata", "base.json"),
		"-current", filepath.Join("testdata", "regressed.json"),
		"-md", path,
	}, &out)
	if code != 1 {
		t.Fatalf("code=%d, want 1", code)
	}
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(md, out.Bytes()) {
		t.Fatal("-md file differs from stdout diff")
	}
}

func TestReportUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(nil, &out); code != 2 || err == nil {
		t.Fatalf("missing flags: code=%d err=%v", code, err)
	}
	if code, _ := run([]string{"-baseline", "testdata/nope.json", "-current", "testdata/base.json"}, &out); code != 2 {
		t.Fatalf("unreadable baseline: code=%d, want 2", code)
	}
	if code, _ := run([]string{"-baseline", "testdata/base.json", "-current", "testdata/base.json", "-threshold", "-1"}, &out); code != 2 {
		t.Fatalf("negative threshold: code=%d, want 2", code)
	}
}
