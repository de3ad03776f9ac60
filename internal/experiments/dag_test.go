package experiments

import (
	"bytes"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/workload"
)

// dagWorkload is the canonical two-stage pipeline: a wordcount whose
// reduce output feeds a top-k stage, plus an unrelated concurrent
// wordcount that shares the corpus scan with stage one. The cost model
// charges materialization so the stage hand-off is visible in timings.
const dagWorkload = `{"kind":"workload","version":3,"name":"dag-test","nodes":2,"slotsPerNode":1,"replicas":1,"cost":{"scanMBps":0.01,"mapMBps":0.5,"taskOverhead":0.05,"dispatchPerJob":0.01,"roundOverhead":0.1,"jobSetup":0.2,"sharePenalty":0.02,"tagPenalty":0.05,"reducePerRound":0.05,"reduceSetup":0.05,"materializeSecPerMB":0.5}}
{"kind":"file","name":"corpus","content":"text","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":11}
{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3","dependsOn":[1]}
{"kind":"job","id":3,"at":1,"file":"corpus","factory":"wordcount","param":"a"}
`

func parseDAGWorkload(t *testing.T) *workload.File {
	t.Helper()
	wf, err := workload.ParseFile(strings.NewReader(dagWorkload))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(wf.Jobs[1].DependsOn) == 0 {
		t.Fatal("dag workload's job 2 declares no dependency")
	}
	return wf
}

// TestRunCompareDAG is the tentpole's end-to-end proof: a
// wordcount→top-k pipeline runs through every scheduler on both
// engines, the derived stage joins the live pass mid-run, and every
// cell — sim cells pricing metadata, engine cells chewing real bytes —
// lands on one output digest.
func TestRunCompareDAG(t *testing.T) {
	wf := parseDAGWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	// {s3, fifo, mrs1} × 2 engines (no cache budget).
	if len(rep.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(rep.Cells))
	}
	digest, err := rep.DigestConsensus()
	if err != nil {
		t.Fatalf("DigestConsensus: %v", err)
	}
	if digest == "" {
		t.Fatal("DAG workload carries no digest")
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if len(c.Jobs) != len(wf.Jobs) {
			t.Fatalf("cell %s ran %d jobs, want %d", c.Key, len(c.Jobs), len(wf.Jobs))
		}
		var stage1, stage2 *benchfmt.JobTiming
		for j := range c.Jobs {
			switch c.Jobs[j].ID {
			case 1:
				stage1 = &c.Jobs[j]
			case 2:
				stage2 = &c.Jobs[j]
			}
		}
		if stage1 == nil || stage2 == nil {
			t.Fatalf("cell %s is missing stage rows", c.Key)
		}
		// The dependent stage cannot start before its producer finishes
		// plus a strictly positive materialization charge (the model
		// prices 0.5 s/MB and the derived file is at least one block).
		if stage2.SubmittedAt <= stage1.CompletedAt {
			t.Fatalf("cell %s released stage 2 at %v, not after stage 1 materialized (done %v)",
				c.Key, stage2.SubmittedAt, stage1.CompletedAt)
		}
	}
}

// TestRunCompareDAGDeterministic: DAG reports, like flat ones, encode
// byte-identically across runs — materialization and mid-run plan
// registration leak no wall-clock or map-order nondeterminism.
func TestRunCompareDAGDeterministic(t *testing.T) {
	encode := func() []byte {
		rep, err := RunCompare(parseDAGWorkload(t), CompareOptions{})
		if err != nil {
			t.Fatalf("RunCompare: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("two DAG runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestRunCompareDAGSharesScans: the unrelated concurrent job (id 3)
// rides the same circular pass as stage one under S3 — the cell runs
// fewer rounds than FIFO, which scans the corpus once per job.
func TestRunCompareDAGSharesScans(t *testing.T) {
	wf := parseDAGWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{
		Engines: []string{benchfmt.EngineSim},
		Caches:  []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	s3 := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	fifo := rep.Cell(benchfmt.CellKey{Scheduler: "fifo", Engine: benchfmt.EngineSim})
	if s3 == nil || fifo == nil {
		t.Fatal("missing cells")
	}
	if s3.Rounds >= fifo.Rounds {
		t.Fatalf("S3 did not share the corpus scan: s3 rounds=%d, fifo rounds=%d", s3.Rounds, fifo.Rounds)
	}
}
