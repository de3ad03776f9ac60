package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/workload"
)

// compareWorkload is a small full-featured workload: real text content
// (so engine cells run), a cache budget sized to hold the whole file
// (so cache counters are eviction-free and deterministic), no faults.
const compareWorkload = `{"kind":"workload","version":1,"name":"compare-test","nodes":2,"slotsPerNode":1,"replicas":1,"cacheMBPerNode":1,"cacheFrac":0.25,"cost":{"scanMBps":0.01,"mapMBps":0.5,"taskOverhead":0.05,"dispatchPerJob":0.01,"roundOverhead":0.1,"jobSetup":0.2,"sharePenalty":0.02,"tagPenalty":0.05,"reducePerRound":0.05,"reduceSetup":0.05}}
{"kind":"file","name":"corpus","content":"text","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":11}
{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":3,"file":"corpus","factory":"wordcount","param":"a"}
{"kind":"job","id":3,"at":20,"file":"corpus","factory":"aggregation","param":""}
`

func parseCompareWorkload(t *testing.T) *workload.File {
	t.Helper()
	wf, err := workload.ParseFile(strings.NewReader(strings.Replace(compareWorkload,
		`"factory":"aggregation","param":""`, `"factory":"wordcount","param":"w"`, 1)))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	return wf
}

func TestRunCompareFullMatrix(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	// {s3, fifo} × 2 engines × 2 pipelines × 2 caches, plus mrs1's serial
	// half: MRShare is never stage-aware, so its pipeline=on cells would
	// be copies and the matrix has none.
	if len(rep.Cells) != 20 {
		t.Fatalf("got %d cells, want 20", len(rep.Cells))
	}
	for i := range rep.Cells {
		if k := rep.Cells[i].Key; k.Scheduler == "mrs1" && k.Pipeline {
			t.Fatalf("matrix has the serial copy %s", k)
		}
	}
	digest, err := rep.DigestConsensus()
	if err != nil {
		t.Fatalf("DigestConsensus: %v", err)
	}
	if digest == "" {
		t.Fatal("no output digest on a content workload")
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.TET <= 0 || c.ART <= 0 || c.Rounds <= 0 {
			t.Fatalf("cell %s has degenerate metrics: %+v", c.Key, c)
		}
		if len(c.Jobs) != len(wf.Jobs) {
			t.Fatalf("cell %s has %d job rows, want %d", c.Key, len(c.Jobs), len(wf.Jobs))
		}
		if c.OutputDigest != digest {
			t.Fatalf("cell %s digest %.12s != consensus %.12s", c.Key, c.OutputDigest, digest)
		}
	}
	// Cache-on cells observe real (or modeled) cache hits: the sparse
	// third job re-scans blocks the first pass already read.
	warm := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineReal, Cache: true})
	if warm == nil || warm.CacheHitRatio <= 0 {
		t.Fatalf("engine cache cell saw no hits: %+v", warm)
	}
}

// TestRunCompareDeterministic is the harness's determinism regression
// test: the same workload run twice encodes byte-identically — engine
// cells included, because their timings come from the cost model, not
// the wall clock.
func TestRunCompareDeterministic(t *testing.T) {
	wf := parseCompareWorkload(t)
	encode := func() []byte {
		rep, err := RunCompare(wf, CompareOptions{})
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
		t.Fatalf("two runs of the same workload differ:\n%s\nvs\n%s", a, b)
	}
}

// TestRunCompareSimEngineTwins: a sim cell and its engine twin march
// through the same round sequence with the same virtual timings
// (cache-off cells; cache-on sim cells price warm reads the engine
// timer does not model).
func TestRunCompareSimEngineTwins(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{Caches: []bool{false}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	for _, sched := range []string{"s3", "fifo", "mrs1"} {
		for _, pipe := range []bool{false, true} {
			simCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineSim, Pipeline: pipe})
			engCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineReal, Pipeline: pipe})
			if sched == "mrs1" && pipe {
				if simCell != nil || engCell != nil {
					t.Fatal("mrs1 never pipelines, yet has a pipeline=on cell")
				}
				continue
			}
			if simCell == nil || engCell == nil {
				t.Fatalf("missing twin for %s/pipe=%v", sched, pipe)
			}
			if simCell.TET != engCell.TET || simCell.Rounds != engCell.Rounds {
				t.Fatalf("%s pipe=%v: sim TET=%v rounds=%d, engine TET=%v rounds=%d",
					sched, pipe, simCell.TET, simCell.Rounds, engCell.TET, engCell.Rounds)
			}
			if simCell.ART != engCell.ART {
				t.Fatalf("%s pipe=%v: sim ART=%v != engine ART=%v", sched, pipe, simCell.ART, engCell.ART)
			}
		}
	}
}

func TestRunCompareSubMatrixAndMeta(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{
		Schedulers: []string{"s3"},
		Engines:    []string{benchfmt.EngineSim},
		Pipelines:  []bool{false},
		Caches:     []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("sub-matrix gave %d cells", len(rep.Cells))
	}

	// Meta content: engine cells drop out, digests are empty.
	meta, err := workload.ParseFile(strings.NewReader(strings.NewReplacer(
		`"content":"text"`, `"content":"meta"`,
		`"seed":11`, `"seed":0`,
	).Replace(compareWorkload)))
	if err != nil {
		t.Fatalf("meta workload: %v", err)
	}
	mrep, err := RunCompare(meta, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare(meta): %v", err)
	}
	if len(mrep.Cells) != 10 {
		t.Fatalf("meta matrix gave %d cells, want 10 (sim only)", len(mrep.Cells))
	}
	for i := range mrep.Cells {
		if mrep.Cells[i].Key.Engine != benchfmt.EngineSim {
			t.Fatalf("meta workload ran engine cell %s", mrep.Cells[i].Key)
		}
		if mrep.Cells[i].OutputDigest != "" {
			t.Fatalf("meta cell %s carries a digest", mrep.Cells[i].Key)
		}
	}
	// A sub-matrix of nothing but serial copies is an error, not an
	// empty report.
	if _, err := RunCompare(wf, CompareOptions{Schedulers: []string{"mrs1=mrshare"}, Pipelines: []bool{true}}); err == nil {
		t.Fatal("mrs1 × pipeline=on produced a report")
	}
	// Engine-only on meta content is an explicit error.
	if _, err := RunCompare(meta, CompareOptions{Engines: []string{benchfmt.EngineReal}}); err == nil {
		t.Fatal("engine-only meta compare did not fail")
	}
	// Cache cells without a budget are an explicit error.
	noCache := parseCompareWorkload(t)
	noCache.Header.CacheMBPerNode = 0
	if _, err := RunCompare(noCache, CompareOptions{Caches: []bool{true}}); err == nil {
		t.Fatal("cache cells without a budget did not fail")
	}
}

// TestRunCompareLineitem covers the selection/aggregation factories on
// lineitem content through the matrix (map-only and combiner jobs take
// different engine paths than wordcount).
func TestRunCompareLineitem(t *testing.T) {
	src := `{"kind":"workload","version":1,"name":"li","nodes":2,"slotsPerNode":1,"replicas":1,"cost":{"scanMBps":0.01,"mapMBps":0.5,"taskOverhead":0.05,"dispatchPerJob":0.01,"roundOverhead":0.1,"jobSetup":0.2,"sharePenalty":0.02,"tagPenalty":0.05,"reducePerRound":0.05,"reduceSetup":0.05}}
{"kind":"file","name":"lineitem","content":"lineitem","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":3}
{"kind":"job","id":1,"at":0,"file":"lineitem","factory":"selection","param":"25"}
{"kind":"job","id":2,"at":1,"file":"lineitem","factory":"aggregation","numReduce":2}
`
	wf, err := workload.ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	rep, err := RunCompare(wf, CompareOptions{Pipelines: []bool{true}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	digest, err := rep.DigestConsensus()
	if err != nil || digest == "" {
		t.Fatalf("DigestConsensus = %q, %v", digest, err)
	}
}

func TestRunCompareRejects(t *testing.T) {
	wf := parseCompareWorkload(t)
	for _, tc := range []struct {
		what string
		opts CompareOptions
		want string // in the error
	}{
		{"unknown scheduler", CompareOptions{Schedulers: []string{"bogus"}}, "bogus"},
		{"unknown engine", CompareOptions{Engines: []string{"abacus"}}, "abacus"},
		{"repeated scheduler", CompareOptions{Schedulers: []string{"s3", "s3"}}, "scheduler s3 is listed twice"},
		{"two schemes of one name", CompareOptions{Schedulers: []string{"mrshare:6:4", "mrshare:3:3:4"}}, "scheduler mrshare is listed twice"},
		{"repeated label", CompareOptions{Schedulers: []string{"x=s3", "x=fifo"}}, "scheduler x is listed twice"},
		{"empty label", CompareOptions{Schedulers: []string{"=s3"}}, "empty label"},
		{"repeated engine", CompareOptions{Engines: []string{benchfmt.EngineSim, benchfmt.EngineSim}}, "engine sim is listed twice"},
		{"repeated pipeline toggle", CompareOptions{Pipelines: []bool{false, false}}, "pipeline false is listed twice"},
		{"repeated cache toggle", CompareOptions{Caches: []bool{true, true}}, "cache true is listed twice"},
		{"single-file scheme over a DAG workload", CompareOptions{Schedulers: []string{"s3-static"}}, ""},
	} {
		in := wf
		if tc.want == "" {
			in = parseDAGWorkload(t)
		}
		if _, err := RunCompare(in, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.what, err, tc.want)
		}
	}
}

// committedWorkload parses bench/<name>.jsonl, one of the workload
// files the CI perf gate runs.
func committedWorkload(t *testing.T, name string) *workload.File {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "bench", name+".jsonl"))
	if err != nil {
		t.Fatalf("%s workload: %v", name, err)
	}
	defer f.Close()
	wf, err := workload.ParseFile(f)
	if err != nil {
		t.Fatalf("ParseFile %s: %v", name, err)
	}
	return wf
}

// TestCanonicalWorkloadOrdering runs the committed canonical workload
// (the one the CI perf gate diffs against bench/baseline.json) and
// asserts the paper's headline result holds on it: on a sparse arrival
// pattern, S3's shared circular scan beats MRShare's batch-everything,
// which beats FIFO's scan-per-job, on both TET and ART.
func TestCanonicalWorkloadOrdering(t *testing.T) {
	rep, err := RunCompare(committedWorkload(t, "canonical"), CompareOptions{
		Engines:   []string{benchfmt.EngineSim},
		Pipelines: []bool{false},
		Caches:    []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	cell := func(sched string) *benchfmt.Cell {
		c := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineSim})
		if c == nil {
			t.Fatalf("no %s cell", sched)
		}
		return c
	}
	s3, mrs, fifo := cell("s3"), cell("mrs1"), cell("fifo")
	if !(s3.TET < mrs.TET && mrs.TET < fifo.TET) {
		t.Errorf("TET ordering broken: s3=%.2f mrs1=%.2f fifo=%.2f (want s3 < mrs1 < fifo)",
			s3.TET, mrs.TET, fifo.TET)
	}
	if !(s3.ART < mrs.ART && s3.ART < fifo.ART) {
		t.Errorf("S3 does not win ART: s3=%.2f mrs1=%.2f fifo=%.2f", s3.ART, mrs.ART, fifo.ART)
	}
}

// TestRunCompareFaultWorkload exercises the fault path end to end on
// both engines: the sim prices modeled retries, the engine recovers
// real injected read faults, and outputs still match the fault-free
// solo reference.
func TestRunCompareFaultWorkload(t *testing.T) {
	faulty, err := workload.ParseFile(strings.NewReader(strings.NewReplacer(
		`"cacheMBPerNode":1`, `"faultRate":0.05,"faultSeed":7,"cacheMBPerNode":1`,
		`"factory":"aggregation","param":""`, `"factory":"wordcount","param":"w"`,
	).Replace(compareWorkload)))
	if err != nil {
		t.Fatalf("fault workload: %v", err)
	}
	rep, err := RunCompare(faulty, CompareOptions{
		Schedulers: []string{"s3"},
		Pipelines:  []bool{false},
		Caches:     []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	if _, err := rep.DigestConsensus(); err != nil {
		t.Fatalf("fault injection changed outputs: %v", err)
	}
	simCell := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	if simCell == nil || simCell.FaultRetries == 0 {
		t.Fatalf("sim cell priced no retries at 5%% fault rate: %+v", simCell)
	}
}

// TestCacheCliffWorkload runs bench/cache-cliff.jsonl: at a per-node
// budget half a node's share of the scan cycle — where LRU scores no
// hits at all — the cursor policy, fed S3's scan hints, still serves
// nearly every block warm, and the cached run is faster than the
// uncached one, serial and pipelined.
func TestCacheCliffWorkload(t *testing.T) {
	rep, err := RunCompare(committedWorkload(t, "cache-cliff"), CompareOptions{Schedulers: []string{"s3"}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	for _, pipe := range []bool{false, true} {
		key := benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim, Pipeline: pipe}
		off := rep.Cell(key)
		key.Cache = true
		on := rep.Cell(key)
		if off == nil || on == nil {
			t.Fatalf("pipeline=%v: missing cache cells", pipe)
		}
		if on.CacheHitRatio < 0.9 {
			t.Errorf("%s: cursor hit ratio %.3f, want >= 0.9", on.Key, on.CacheHitRatio)
		}
		if on.TET >= off.TET {
			t.Errorf("%s: TET %.3f not below the uncached %.3f", on.Key, on.TET, off.TET)
		}
	}
}

// TestFaultWorkload runs bench/faults.jsonl: with 2-way replication and
// a 2 % transient block-failure rate every job of every cell finishes,
// the serial cells price retries, and faults slow S3 down without
// inverting its lead over FIFO.
func TestFaultWorkload(t *testing.T) {
	wf := committedWorkload(t, "faults")
	rep, err := RunCompare(wf, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	for _, c := range rep.Cells {
		if len(c.Jobs) != len(wf.Jobs) {
			t.Errorf("%s: %d of %d jobs finished", c.Key, len(c.Jobs), len(wf.Jobs))
		}
		if !c.Key.Pipeline && c.FaultRetries == 0 {
			t.Errorf("%s: no retries at a 2%% fault rate", c.Key)
		}
	}
	s3 := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	fifo := rep.Cell(benchfmt.CellKey{Scheduler: "fifo", Engine: benchfmt.EngineSim})
	if s3 == nil || fifo == nil || s3.TET >= fifo.TET {
		t.Errorf("S3 does not beat FIFO under faults: s3 %+v, fifo %+v", s3, fifo)
	}
}

// TestPipelinedCellsPriceFaults: a pipelined sim run pays for the fault
// model like a serial one — its cells count retries and take longer
// than the same cells with the fault rate at zero.
func TestPipelinedCellsPriceFaults(t *testing.T) {
	faulty, clean := committedWorkload(t, "faults"), committedWorkload(t, "faults")
	clean.Header.FaultRate = 0
	opts := CompareOptions{Pipelines: []bool{true}}
	rep, err := RunCompare(faulty, opts)
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	twins, err := RunCompare(clean, opts)
	if err != nil {
		t.Fatalf("RunCompare fault-free: %v", err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("no pipelined cells")
	}
	for _, c := range rep.Cells {
		twin := twins.Cell(c.Key)
		if twin == nil {
			t.Fatalf("%s: no fault-free twin", c.Key)
		}
		if c.FaultRetries == 0 || c.TET <= twin.TET {
			t.Errorf("%s: %d retries, TET %.3f against %.3f fault-free; faults went unpriced",
				c.Key, c.FaultRetries, c.TET, twin.TET)
		}
	}
}

// TestWorkloadPipelining: on the four gated workloads no pipeline=on
// cell is slower than its serial twin, and where reduce dominates
// (bench/heavy-reduce.jsonl) overlapping round N's reduce with round
// N+1's scan cuts S3's TET by a fifth or more.
func TestWorkloadPipelining(t *testing.T) {
	for _, name := range []string{"canonical", "dense", "heavy-reduce", "dag"} {
		rep, err := RunCompare(committedWorkload(t, name), CompareOptions{Engines: []string{benchfmt.EngineSim}})
		if err != nil {
			t.Fatalf("%s: RunCompare: %v", name, err)
		}
		for _, c := range rep.Cells {
			if !c.Key.Pipeline {
				continue
			}
			serialKey := c.Key
			serialKey.Pipeline = false
			serial := rep.Cell(serialKey)
			if c.TET > serial.TET {
				t.Errorf("%s %s: pipelined TET %.3f exceeds serial %.3f", name, c.Key, c.TET, serial.TET)
			}
			if name == "heavy-reduce" && c.Key.Scheduler == "s3" && c.TET > 0.8*serial.TET {
				t.Errorf("%s %s: pipelined TET %.3f, want <= 80%% of serial %.3f", name, c.Key, c.TET, serial.TET)
			}
		}
	}
}
