package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/sim"
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
	// {s3, fifo, mrs1} × 2 engines × 2 caches.
	if len(rep.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(rep.Cells))
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
		simCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineSim})
		engCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineReal})
		if simCell == nil || engCell == nil {
			t.Fatalf("missing twin for %s", sched)
		}
		if simCell.TET != engCell.TET || simCell.Rounds != engCell.Rounds {
			t.Fatalf("%s: sim TET=%v rounds=%d, engine TET=%v rounds=%d",
				sched, simCell.TET, simCell.Rounds, engCell.TET, engCell.Rounds)
		}
		if simCell.ART != engCell.ART {
			t.Fatalf("%s: sim ART=%v != engine ART=%v", sched, simCell.ART, engCell.ART)
		}
	}
}

func TestRunCompareSubMatrixAndMeta(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{
		Schedulers: []string{"s3"},
		Engines:    []string{benchfmt.EngineSim},
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
	if len(mrep.Cells) != 6 {
		t.Fatalf("meta matrix gave %d cells, want 6 (sim only)", len(mrep.Cells))
	}
	for i := range mrep.Cells {
		if mrep.Cells[i].Key.Engine != benchfmt.EngineSim {
			t.Fatalf("meta workload ran engine cell %s", mrep.Cells[i].Key)
		}
		if mrep.Cells[i].OutputDigest != "" {
			t.Fatalf("meta cell %s carries a digest", mrep.Cells[i].Key)
		}
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
	rep, err := RunCompare(wf, CompareOptions{})
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
		{"unlabelled specs of one name", CompareOptions{Schedulers: []string{"s3", "window:30:10", "window:120:10"}},
			"scheduler mrshare-window is listed twice: window:30:10 and window:120:10 both take that name; label them, as in w30=window:30:10"},
		{"repeated label", CompareOptions{Schedulers: []string{"x=s3", "x=fifo"}}, "scheduler x is listed twice"},
		{"empty label", CompareOptions{Schedulers: []string{"=s3"}}, "empty label"},
		{"repeated engine", CompareOptions{Engines: []string{benchfmt.EngineSim, benchfmt.EngineSim}}, "engine sim is listed twice"},
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
	return parseWorkload(t, filepath.Join("..", "..", "bench", name+".jsonl"))
}

// studyFiles parses the cmd/s3compare/testdata workload files that
// match pattern, in name order.
func studyFiles(t *testing.T, pattern string) []*workload.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "s3compare", "testdata", pattern))
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*workload.File, len(paths))
	for i, path := range paths {
		files[i] = parseWorkload(t, path)
	}
	return files
}

// parseWorkload parses the workload file at path.
func parseWorkload(t *testing.T, path string) *workload.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	defer f.Close()
	wf, err := workload.ParseFile(f)
	if err != nil {
		t.Fatalf("ParseFile %s: %v", path, err)
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
		Engines: []string{benchfmt.EngineSim},
		Caches:  []bool{false},
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

// TestRunCompareFaultWorkload exercises the fault path end to end: the
// sim prices modeled retries, outputs still match the fault-free solo
// reference, and no engine cell is built — workers do not retry a
// failed read — nor can one be asked for.
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
	if len(rep.Cells) != 1 {
		t.Fatalf("got %d cells, want the sim cell alone", len(rep.Cells))
	}
	if _, err := RunCompare(faulty, CompareOptions{Engines: []string{benchfmt.EngineReal}}); err == nil {
		t.Fatal("engine-only compare of a fault-injecting workload did not fail")
	}
}

// TestCacheCliffWorkload runs bench/cache-cliff.jsonl: at a per-node
// budget half a node's share of the scan cycle — where LRU scores no
// hits at all — the cursor policy, fed S3's scan hints, keeps half of
// each node's share across the cycle and evicts nothing to do so. The
// first cycle reads every block from disk; of the scans after it, at
// most half do, misses and readahead together (hits count readahead
// too, so the hit ratio cannot show this). And the cached run is
// faster than the uncached one.
func TestCacheCliffWorkload(t *testing.T) {
	wf := committedWorkload(t, "cache-cliff")
	rep, err := RunCompare(wf, CompareOptions{Schedulers: []string{"s3"}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	off := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	on := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim, Cache: true})
	if off == nil || on == nil {
		t.Fatal("missing cache cells")
	}
	if on.TET >= off.TET {
		t.Errorf("%s: TET %.3f not below the uncached %.3f", on.Key, on.TET, off.TET)
	}
	// The cached cell once more, by hand, for its cache counters.
	env, err := newCellEnv(wf)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schemes("s3")[0].Make(env.plans, env.readers)
	if err != nil {
		t.Fatal(err)
	}
	exec := sim.NewExecutor(env.cluster, env.store, env.model)
	if err := exec.EnableCachePolicy(int64(wf.Header.CacheMBPerNode)<<20, wf.Header.CacheFrac, wf.Header.CachePolicy); err != nil {
		t.Fatal(err)
	}
	wireScanHints(sched, exec.HandleScanHint)
	if _, err := runtime.RunTrace(sched, exec, wf.Entries(), runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	cs := exec.CacheStats()
	if cs.HitRatio() != on.CacheHitRatio {
		t.Fatalf("hand-run hit ratio %v, the %s cell's %v", cs.HitRatio(), on.Key, on.CacheHitRatio)
	}
	first := int64(env.plans[0].File().NumBlocks)
	if scans, physical := cs.Hits+cs.Misses, cs.Misses+cs.Prefetches; 2*(physical-first) > scans-first {
		t.Errorf("%s: %d misses + %d prefetches read %d of %d scanned blocks from disk; after the first cycle's %d, want at most half the rest", on.Key, cs.Misses, cs.Prefetches, physical, scans, first)
	}
	if cs.Evictions != 0 {
		t.Errorf("%s: %d evictions, want none: every block kept is one the cursor reaches sooner than a newcomer", on.Key, cs.Evictions)
	}
}

// TestFaultWorkload runs bench/faults.jsonl: with 2-way replication and
// a 2 % transient block-failure rate every job of every cell finishes,
// every cell prices retries, and faults slow S3 down without inverting
// its lead over FIFO.
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
		if c.FaultRetries == 0 {
			t.Errorf("%s: no retries at a 2%% fault rate", c.Key)
		}
	}
	s3 := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	fifo := rep.Cell(benchfmt.CellKey{Scheduler: "fifo", Engine: benchfmt.EngineSim})
	if s3 == nil || fifo == nil || s3.TET >= fifo.TET {
		t.Errorf("S3 does not beat FIFO under faults: s3 %+v, fifo %+v", s3, fifo)
	}
}

// Every scheme ParseScheme knows recovers from a lost round: under each,
// the sim cell of bench/faults.jsonl (whose fault roll loses whole
// rounds, not only block attempts) finishes every job.
func TestFaultWorkloadEveryScheme(t *testing.T) {
	wf := committedWorkload(t, "faults")
	for _, spec := range []string{"s3", "s3-static", "s3-nocircular", "fifo", "fair", "mrshare", "mrshare:3:3:4", "window:60:4"} {
		rep, err := RunCompare(wf, CompareOptions{Schedulers: []string{spec}, Engines: []string{benchfmt.EngineSim}})
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if c := rep.Cells[0]; len(c.Jobs) != len(wf.Jobs) || c.FaultRetries == 0 {
			t.Errorf("%s: %d of %d jobs finished, %d retries", spec, len(c.Jobs), len(wf.Jobs), c.FaultRetries)
		}
	}
}

// A workload job's program reaches the workers as a JobRef the standard
// registry builds: heavy-wordcount's emit factor rides its param.
func TestJobRefs(t *testing.T) {
	reg := remote.NewStandardRegistry()
	for _, tc := range []struct {
		job    workload.FileJob
		want   remote.JobRef
		mapper mapreduce.Mapper
	}{
		{workload.FileJob{ID: 1, File: "corpus", Factory: "wordcount", Param: "t"},
			remote.JobRef{Name: "wordcount-t-1", Factory: "wordcount", Param: "t"}, workload.PatternCountMapper{Prefix: "t"}},
		{workload.FileJob{ID: 2, File: "corpus", Factory: "heavy-wordcount", Param: "a", NumReduce: 2, EmitFactor: 4},
			remote.JobRef{Name: "heavy-wordcount-a-2", Factory: "heavy-wordcount", Param: "4:a", NumReduce: 2}, workload.PatternCountMapper{Prefix: "a", EmitFactor: 4}},
		{workload.FileJob{ID: 3, File: "corpus", Factory: "heavy-wordcount", Param: "th"},
			remote.JobRef{Name: "heavy-wordcount-th-3", Factory: "heavy-wordcount", Param: "1:th"}, workload.PatternCountMapper{Prefix: "th", EmitFactor: 1}},
	} {
		ref := jobRef(&tc.job)
		if ref != tc.want {
			t.Errorf("job %d: %+v, want %+v", tc.job.ID, ref, tc.want)
		}
		if mapper, _, _, err := reg.Build(ref.Factory, ref.Param); err != nil || mapper != tc.mapper {
			t.Errorf("job %d builds %#v, %v; want %#v", tc.job.ID, mapper, err, tc.mapper)
		}
	}
}
