package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

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
