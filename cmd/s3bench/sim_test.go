package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const replayFixture = "testdata/replay-fixture.csv"

// TestSubcommandGolden pins the stdout of `s3bench sim` and `s3bench
// replay` byte for byte. The golden files were captured from the s3sim
// and s3replay binaries these subcommands replaced, so any drift is a
// change to the schedulers, the cost model or the tables — refresh with
// `go test -update` only when that is intended. sim-taxonomy (§II-B's
// scheduler taxonomy) and sim-window (time-window MRShare against S3)
// carry the numbers the retired `-exp taxonomy` and `-exp window`
// studies printed.
func TestSubcommandGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		name   string
		args   []string
	}{
		{"sim-defaults", "sim", nil},
		{"sim-mrshare", "sim", strings.Fields("-sched s3,mrshare:2:2 -jobs 4 -pattern sparse -blockmb 128")},
		{"sim-trace", "sim", strings.Fields("-sched s3 -jobs 3 -trace -timeline")},
		{"sim-cache", "sim", strings.Fields("-sched s3,fifo -cachemb 4096")},
		{"sim-taxonomy", "sim", strings.Fields("-sched fifo,fair,s3")},
		{"sim-window", "sim", strings.Fields("-sched s3,window:30:10,window:120:10,window:240:10,window:480:10")},
		{"replay-perjob", "replay", strings.Fields("-trace " + replayFixture + " -sched s3,fifo,window:120:10 -perjob")},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runSubcommand(tc.name, tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", golden, stdout.String(), want)
			}
		})
	}
}

// TestSubcommandErrors: a bad flag value is one line on stderr naming
// the flag and exit 2, with nothing on stdout; a failure that is not the
// command line's fault is exit 1. `replay -blockmb 0` used to divide by
// zero and `sim -jobs 0` used to panic inside workload.SparseGroups.
func TestSubcommandErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   string
		code   int
		stderr string
	}{
		{"replay", "-trace " + replayFixture + " -blockmb 0", 2, "-blockmb 0"},
		{"replay", "-trace " + replayFixture + " -inputgb 0", 2, "-inputgb 0"},
		{"replay", "-trace " + replayFixture + " -sched s3,,fifo", 2, "-sched"},
		{"replay", "-trace " + replayFixture + " -sched window:30", 2, "-sched"},
		{"replay", "", 2, "-trace"},
		{"replay", "-trace testdata/no-such-trace.csv", 1, "no-such-trace.csv"},
		{"sim", "-jobs 0", 2, "-jobs"},
		{"sim", "-jobs -3 -pattern dense", 2, "-jobs"},
		{"sim", "-gap -1", 2, "-gap"},
		{"sim", "-inputgb 0", 2, "-inputgb 0"},
		{"sim", "-blockmb 0", 2, "-blockmb 0"},
		{"sim", "-pattern bogus", 2, "-pattern"},
		{"sim", "-sched s3,", 2, "-sched"},
		{"sim", "-sched nope", 2, "-sched"},
		{"sim", "-sched mrshare:", 2, "-sched"},
		{"sim", "-sched mrshare:2 -jobs 3", 1, "mrshare"},
	} {
		t.Run(tc.name+" "+tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := runSubcommand(tc.name, strings.Fields(tc.args), &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "s3bench "+tc.name+": ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.stderr) {
				t.Errorf("stderr = %q, want one line from s3bench %s naming %q", msg, tc.name, tc.stderr)
			}
			if tc.code == 2 && stdout.Len() > 0 {
				t.Errorf("a usage error printed to stdout: %q", stdout.String())
			}
		})
	}
}

// TestReplayTraceJSON: -tracejson writes the first scheme's span tree
// and says so, ahead of that scheme's row.
func TestReplayTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr bytes.Buffer
	if code := runSubcommand("replay", []string{"-trace", replayFixture, "-sched", "s3,fifo", "-tracejson", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+path+"\ns3 ") {
		t.Errorf("stdout does not announce the trace before the s3 row:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"job 6"`, `"subjob"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace file has no %s", want)
		}
	}
}

func TestArrivalTimes(t *testing.T) {
	dense, err := arrivalTimes("dense", 4, 5, 0)
	if err != nil || len(dense) != 4 || dense[3] != 15 {
		t.Fatalf("dense = %v, %v", dense, err)
	}
	sparse, err := arrivalTimes("sparse", 10, 100, 5)
	if err != nil || len(sparse) != 10 {
		t.Fatalf("sparse = %v, %v", sparse, err)
	}
	// 10 jobs -> groups of 3/3/4 starting at 0, 100, 200.
	if sparse[3] != 100 || sparse[6] != 200 {
		t.Fatalf("sparse group starts = %v", sparse)
	}
	if _, err := arrivalTimes("bogus", 2, 1, 1); err == nil {
		t.Error("unknown pattern should fail")
	}
	// Small job counts still produce valid groups.
	tiny, err := arrivalTimes("sparse", 2, 50, 5)
	if err != nil || len(tiny) != 2 {
		t.Fatalf("tiny sparse = %v, %v", tiny, err)
	}
}

// TestDemoRuns executes the full demo — real MapReduce jobs through
// the S^3 scheduler — and checks the narrative it prints: shared-scan
// decisions, the physical scan ledger, and per-job results.
func TestDemoRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runSubcommand("demo", nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s\noutput:\n%s", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"=== Job Queue Manager decision trace (Algorithm 1) ===",
		"subjob-aligned",
		"round-launched",
		"job-completed",
		"=== physical scan ledger ===",
		"count-t*:",
		"count-a*:",
		"count-w*:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The ledger line proves scan sharing: far fewer physical block
	// scans than the 54 three isolated jobs would need (staggered
	// arrivals cost a few catch-up scans beyond the 18-block minimum).
	var scans int
	if _, err := fmt.Sscanf(out[strings.Index(out, "block scans:"):], "block scans: %d", &scans); err != nil {
		t.Fatalf("no parseable scan ledger line: %v\n%s", err, out)
	}
	if scans < 18 || scans >= 54 {
		t.Errorf("block scans = %d, want shared-scan range [18, 54)", scans)
	}
}
