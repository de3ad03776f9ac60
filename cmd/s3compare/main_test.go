package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (refresh with -update)\ngot:\n%s", name, got)
	}
}

// TestCompareGoldenJSON pins the full-matrix JSON report for the tiny
// fixture byte-for-byte. Cost-model pricing makes the report machine
// independent, so any drift is a real change to the schedulers, the
// engine, or the report format.
func TestCompareGoldenJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", filepath.Join("testdata", "tiny.jsonl")}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "report.golden.json", out.Bytes())

	rep, err := benchfmt.Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("report is not decodable: %v", err)
	}
	if len(rep.Cells) != 20 { // mrs1 never pipelines: no pipeline=on copies of its four serial cells
		t.Fatalf("got %d cells, want 20", len(rep.Cells))
	}
	if _, err := rep.DigestConsensus(); err != nil {
		t.Fatalf("digest consensus: %v", err)
	}
}

// TestCompareGoldenMarkdown pins the -md comparison table.
func TestCompareGoldenMarkdown(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", filepath.Join("testdata", "tiny.jsonl"), "-md", "-engines", "sim"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "report.golden.md", out.Bytes())
}

func TestCompareFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "-workload") {
		t.Fatalf("missing -workload not rejected: %v", err)
	}
	if err := run([]string{"-workload", "testdata/tiny.jsonl", "-pipelines", "sideways"}, &out); err == nil {
		t.Fatal("bad -pipelines value not rejected")
	}
	if err := run([]string{"-workload", "testdata/tiny.jsonl", "-schedulers", "mrs1", "-pipelines", "on"}, &out); err == nil || out.Len() > 0 {
		t.Fatalf("a sub-matrix of serial copies only gave a report: %v", err)
	}
	if err := run([]string{"-workload", "testdata/nope.jsonl"}, &out); err == nil {
		t.Fatal("missing workload file not rejected")
	}
}

func TestCompareWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	var out bytes.Buffer
	err := run([]string{"-workload", "testdata/tiny.jsonl", "-engines", "sim", "-pipelines", "off", "-caches", "off", "-o", path}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Fatalf("no confirmation line: %q", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatalf("written report invalid: %v", err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("got %d cells, want 3 (one per scheduler)", len(rep.Cells))
	}
}
