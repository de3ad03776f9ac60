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
	if len(rep.Cells) != 12 { // 3 schedulers × 2 engines × cache off/on
		t.Fatalf("got %d cells, want 12", len(rep.Cells))
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

// TestCompareStudyGoldens pins the sim-only scheduler studies that are
// runs of a workload file: Figure 4(a) against MRShare as 5+5, the
// scheduler taxonomy (B5), time-window MRShare (B1), the LRU cache at
// 4 GB and at the 2 GB cliff, a recorded six-job submission log whose
// JSON report carries the per-job audit, ablation X4's segments of 20
// and 80 blocks (fig4-a's s3 cell is its 40), §III's two-job examples
// with the second job at +20 s and +80 s, Figure 4(a)'s forty
// arrival-jitter trials (B3) and the Poisson load sweep (B4).
func TestCompareStudyGoldens(t *testing.T) {
	fig4a := filepath.Join("..", "..", "bench", "fig4-a.jsonl")
	type study struct {
		name, format string // the golden is testdata/<name>.golden.<format>
		args         []string
	}
	// studies pins every testdata/<dir>/*.jsonl under schedulers.
	studies := func(dir, schedulers string) []study {
		paths, err := filepath.Glob(filepath.Join("testdata", dir, "*.jsonl"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no %s workloads: %v", dir, err)
		}
		var out []study
		for _, path := range paths {
			name := filepath.Join(dir, strings.TrimSuffix(filepath.Base(path), ".jsonl"))
			out = append(out, study{name, "md", []string{"-workload", path, "-schedulers", schedulers}})
		}
		return out
	}
	cases := []study{
		{"defaults", "md", []string{"-workload", fig4a, "-schedulers", "s3,fifo,mrs55=mrshare:5:5"}},
		{"taxonomy", "md", []string{"-workload", fig4a, "-schedulers", "fifo,fair,s3"}},
		{"window", "md", []string{"-workload", fig4a,
			"-schedulers", "s3,w30=window:30:10,w120=window:120:10,w240=window:240:10,w480=window:480:10"}},
		{"lru-4096", "md", []string{"-workload", "testdata/lru-4096.jsonl", "-schedulers", "s3,fifo", "-caches", "on"}},
		{"lru-2048", "md", []string{"-workload", "testdata/lru-2048.jsonl", "-schedulers", "s3", "-caches", "on"}},
		{"replay", "json", []string{"-workload", "testdata/replay.jsonl", "-schedulers", "s3,fifo,w120=window:120:10"}},
		{"seg-20", "md", []string{"-workload", "testdata/seg-20.jsonl", "-schedulers", "s3"}},
		{"seg-80", "md", []string{"-workload", "testdata/seg-80.jsonl", "-schedulers", "s3"}},
		{"examples-20", "md", []string{"-workload", "testdata/examples-20.jsonl", "-schedulers", "fifo,mrshare,s3"}},
		{"examples-80", "md", []string{"-workload", "testdata/examples-80.jsonl", "-schedulers", "fifo,mrshare,s3"}},
	}
	cases = append(cases, studies("jitter", "s3,fifo,mrs3=mrshare:3:3:4")...)
	cases = append(cases, studies("poisson", "s3,fifo")...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args, "-engines", "sim")
			if tc.format == "md" {
				args = append(args, "-md")
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			checkGolden(t, tc.name+".golden."+tc.format, out.Bytes())
		})
	}
}

func TestCompareFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "-workload") {
		t.Fatalf("missing -workload not rejected: %v", err)
	}
	if err := run([]string{"-workload", "testdata/tiny.jsonl", "-caches", "sideways"}, &out); err == nil {
		t.Fatal("bad -caches value not rejected")
	}
	for _, list := range []string{"s3,s3", "mrshare:6:4,mrshare:3:3:4", "mrs1"} {
		if err := run([]string{"-workload", "testdata/tiny.jsonl", "-engines", "sim", "-schedulers", list}, &out); err == nil || out.Len() > 0 {
			t.Fatalf("-schedulers %s gave a report: %v", list, err)
		}
	}
	if err := run([]string{"-workload", "testdata/nope.jsonl"}, &out); err == nil {
		t.Fatal("missing workload file not rejected")
	}
}

func TestCompareWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	var out bytes.Buffer
	err := run([]string{"-workload", "testdata/tiny.jsonl", "-engines", "sim", "-caches", "off", "-o", path}, &out)
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

// TestCompareLabelledSchedulers: -schedulers takes any scheme of the one
// grammar, and a label keys its cells.
func TestCompareLabelledSchedulers(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "testdata/tiny.jsonl", "-engines", "sim", "-caches", "off",
		"-schedulers", "s3, mrs2=mrshare:1:2,mrshare"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := benchfmt.Decode(&out)
	if err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	var keys []string
	for _, c := range rep.Cells {
		keys = append(keys, c.Key.Scheduler)
	}
	if got := strings.Join(keys, ","); got != "mrs2,mrshare,s3" {
		t.Fatalf("cells keyed %s, want mrs2,mrshare,s3", got)
	}
}
