package s3sched_test

// One benchmark per table and figure of the paper's evaluation (§V),
// plus the DESIGN.md ablations (X2 and X5 are cells of the Figure 4
// panels) and micro-benchmarks of the hot paths.
// The figure benches report the measured TET/ART as custom metrics so
// `go test -bench` output doubles as the experiment record; see
// EXPERIMENTS.md for paper-vs-measured commentary.

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/experiments"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// BenchmarkTable1WordcountDetails regenerates Table I: the normal
// wordcount workload profile from the sequential reference.
func BenchmarkTable1WordcountDetails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(experiments.DefaultTable1Config())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.MapOutputRecords), "mapOutRecords")
			b.ReportMetric(float64(res.ReduceOutRecords), "reduceOutRecords")
		}
	}
}

// BenchmarkFig3CombinedJobCost regenerates Figure 3 on an in-process
// cluster: n jobs merged into one shared-scan round, n = 1..10.
func BenchmarkFig3CombinedJobCost(b *testing.B) {
	cfg := experiments.DefaultFig3Config()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, point := range points {
			if point.BlockReads != int64(cfg.Blocks) {
				b.Fatalf("%d jobs: block reads = %d, want %d (shared scan)", point.Jobs, point.BlockReads, cfg.Blocks)
			}
		}
	}
}

// BenchmarkFig3SimPaperScale regenerates Figure 3's magnitudes with
// the calibrated cost model at full 2560-block scale (paper: +25.5%
// at n=10).
func BenchmarkFig3SimPaperScale(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3Sim(experiments.DefaultParams(), 10)
		if err != nil {
			b.Fatal(err)
		}
		ratio = points[9].VsSingle
	}
	b.ReportMetric(ratio, "n10/n1")
}

// fig4Schemes are the cells of every bench/fig4-<panel>-baseline.json:
// the paper's five plus ablations X2 (s3-static) and X5 (s3-nocircular).
var fig4Schemes = append(experiments.PaperSchemes(), "s3-static", "s3-nocircular")

// benchPanel runs the committed bench/fig4-<panel>.jsonl through the
// comparison matrix at the cells CI gates and reports each scheme's
// S^3-normalized metrics.
func benchPanel(b *testing.B, panel string) {
	b.Helper()
	wf := benchWorkload(b, "bench/fig4-"+panel+".jsonl")
	var rep *benchfmt.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunCompare(wf, experiments.CompareOptions{Schedulers: fig4Schemes})
		if err != nil {
			b.Fatal(err)
		}
	}
	s3 := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	for _, c := range rep.Cells {
		b.ReportMetric(c.TET/s3.TET, c.Key.Scheduler+"-TET/s3")
		b.ReportMetric(c.ART/s3.ART, c.Key.Scheduler+"-ART/s3")
	}
}

// benchWorkload parses the workload file at path.
func benchWorkload(b *testing.B, path string) *workload.File {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	wf, err := workload.ParseFile(f)
	if err != nil {
		b.Fatal(err)
	}
	return wf
}

// BenchmarkFig4aSparseNormal64 — Figure 4(a): sparse pattern, normal
// workload, 64 MB blocks.
func BenchmarkFig4aSparseNormal64(b *testing.B) { benchPanel(b, "a") }

// BenchmarkFig4bDenseNormal64 — Figure 4(b): dense pattern, normal
// workload, 64 MB blocks.
func BenchmarkFig4bDenseNormal64(b *testing.B) { benchPanel(b, "b") }

// BenchmarkFig4cSparseHeavy64 — Figure 4(c): sparse pattern, heavy
// workload (10x map output, 200x reduce output), 64 MB blocks.
func BenchmarkFig4cSparseHeavy64(b *testing.B) { benchPanel(b, "c") }

// BenchmarkFig4dSparseNormal128 — Figure 4(d): sparse pattern, normal
// workload, 128 MB blocks.
func BenchmarkFig4dSparseNormal128(b *testing.B) { benchPanel(b, "d") }

// BenchmarkFig4eSparseNormal32 — Figure 4(e): sparse pattern, normal
// workload, 32 MB blocks.
func BenchmarkFig4eSparseNormal32(b *testing.B) { benchPanel(b, "e") }

// BenchmarkFig4fSelection — Figure 4(f): selection workload over the
// 400 GB TPC-H lineitem table.
func BenchmarkFig4fSelection(b *testing.B) { benchPanel(b, "f") }

// BenchmarkExamplesAnalytic regenerates the §III Examples 1-3 analytic
// scenarios (the sim package asserts the exact values in tests).
func BenchmarkExamplesAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := dfs.MustStore(1, 1)
		f, err := store.AddMetaFile("input", 10, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, 1)
		if err != nil {
			b.Fatal(err)
		}
		exec := sim.NewExecutor(sim.NewCluster(1, 1), store, sim.CostModel{ScanMBps: 6.4})
		res, err := runtime.RunTrace(core.New(plan, nil), exec, []runtime.Arrival{
			{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
			{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: 20},
		}, runtime.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if tet, _ := metrics.TET(res.Jobs); tet != 120 {
			b.Fatalf("TET = %v, want 120", tet)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSlotChecking — X1: slow-node exclusion (§IV-D1).
func BenchmarkAblationSlotChecking(b *testing.B) {
	var res experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblationSlotChecking(experiments.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAblation(b, res)
}

// BenchmarkAblationPartialAgg — X3: per-round partial aggregation
// (§V-G), on the sequential reference.
func BenchmarkAblationPartialAgg(b *testing.B) {
	var res experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblationPartialAgg()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Extra["reduceInputRecords"], row.Name+"-reduceIn")
	}
}

// BenchmarkAblationSegmentSize — X4: segment width vs the ideal
// one-block-per-slot (§IV-B): fig4-a's s3 cell at 20, 40 and 80 blocks
// per segment.
func BenchmarkAblationSegmentSize(b *testing.B) {
	files := []*workload.File{
		benchWorkload(b, "cmd/s3compare/testdata/seg-20.jsonl"),
		benchWorkload(b, "bench/fig4-a.jsonl"),
		benchWorkload(b, "cmd/s3compare/testdata/seg-80.jsonl"),
	}
	reps := make([]*benchfmt.Report, len(files))
	for i := 0; i < b.N; i++ {
		for j, wf := range files {
			var err error
			if reps[j], err = experiments.RunCompare(wf, experiments.CompareOptions{Schedulers: []string{"s3"}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for j, rep := range reps {
		c := rep.Cells[0]
		name := fmt.Sprintf("seg-%d", files[j].Files[0].SegmentBlocks)
		b.ReportMetric(c.TET, name+"-TET")
		b.ReportMetric(c.ART, name+"-ART")
	}
}

func reportAblation(b *testing.B, res experiments.AblationResult) {
	b.Helper()
	for _, row := range res.Rows {
		b.ReportMetric(row.TET.Seconds(), row.Name+"-TET")
		b.ReportMetric(row.ART.Seconds(), row.Name+"-ART")
	}
}

// --- Beyond-paper studies ---

// BenchmarkEstimatorStudy — §IV-D1 completion-prediction accuracy.
func BenchmarkEstimatorStudy(b *testing.B) {
	var res experiments.EstimatorResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.EstimatorStudy(experiments.DefaultParams(), 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MAPE*100, "MAPE-pct")
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkMapBlockWordcount measures the one map-task body (the
// workers and the sequential reference both run it) on a 256 KB text block: byte-level pattern
// match, grouped combine, partition.
func BenchmarkMapBlockWordcount(b *testing.B) {
	benchMapBlock(b, workload.NewTextGen(1).Block(0, 256<<10), workload.PatternCountMapper{Prefix: "t"}, workload.SumReducer{})
}

// BenchmarkMapBlockWordcountMix is the map work a wc-shared or scan-cold
// worker runs for one round: one merged task per block of eight 256 KB
// text blocks, for k word counts of distinct DistinctPrefixes, as in the
// benchmark's cluster (a NumReduce of 2, the summing combiner). k=1 and
// k=2, scan-cold's passes, map the blocks once for each letter of all 16
// and once for each pair of them; k of 3 and more once for the first k.
// One and two first bytes take the IndexByte walks, three and more the
// word-at-a-time walk.
func BenchmarkMapBlockWordcountMix(b *testing.B) {
	gen := workload.NewTextGen(1)
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = gen.Block(i, 256<<10)
	}
	letters := workload.DistinctPrefixes(16)
	for _, k := range []int{1, 2, 3, 7, 16} {
		var tasks [][]mapreduce.MapJob
		for first := 0; first < len(letters) && (first == 0 || k <= 2); first += k {
			jobs := make([]mapreduce.MapJob, k)
			for j, prefix := range letters[first : first+k] {
				jobs[j] = mapreduce.MapJob{Mapper: workload.PatternCountMapper{Prefix: prefix}, Combiner: workload.SumReducer{}, Width: 2}
			}
			tasks = append(tasks, jobs)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(tasks) * len(blocks) * 256 << 10))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, jobs := range tasks {
					for _, data := range blocks {
						if _, errs := mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs); errors.Join(errs...) != nil {
							b.Fatal(errors.Join(errs...))
						}
					}
				}
			}
		})
	}
}

// BenchmarkMapBlockSelection is the same task for the 10% selection
// over a 256 KB lineitem block: no combiner, rows emitted straight
// into the partitions.
func BenchmarkMapBlockSelection(b *testing.B) {
	benchMapBlock(b, workload.NewLineitemGen(1).Block(0, 256<<10), workload.SelectionMapper{MaxQuantity: 5}, nil)
}

// BenchmarkMapBlockSelectionShared is a merged task's pass for four
// selection jobs over a 512 KB lineitem block, as a sel-shuffle worker
// runs it: the same quantity four times, and four distinct ones.
func BenchmarkMapBlockSelectionShared(b *testing.B) {
	data := workload.NewLineitemGen(1).Block(0, 512<<10)
	for name, step := range map[string]int{"same": 0, "distinct": 5} {
		jobs := make([]mapreduce.MapJob, 4)
		for j := range jobs {
			jobs[j] = mapreduce.MapJob{Mapper: workload.SelectionMapper{MaxQuantity: 5 + step*j}, Width: 2}
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs)
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchMapBlock(b *testing.B, data []byte, mapper mapreduce.Mapper, combiner mapreduce.Reducer) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.MapBlockForJob(dfs.BlockID{}, data, mapper, combiner, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS3SchedulerThroughput measures raw JQM decision cost: one
// Submit + k NextRound/RoundDone cycles over a 64-segment plan.
func BenchmarkS3SchedulerThroughput(b *testing.B) {
	store := dfs.MustStore(40, 1)
	f, err := store.AddMetaFile("input", 2560, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.New(plan, nil)
		if err := s.Submit(scheduler.JobMeta{ID: 1, File: "input"}, 0); err != nil {
			b.Fatal(err)
		}
		for {
			r, ok := s.NextRound(0)
			if !ok {
				break
			}
			s.RoundDone(r, 0)
		}
	}
}

// BenchmarkSimExecutorRound measures the cost-model pricing of one
// 40-block round carrying fig4-a's ten jobs.
func BenchmarkSimExecutorRound(b *testing.B) {
	wf := benchWorkload(b, "bench/fig4-a.jsonl")
	h, spec := &wf.Header, &wf.Files[0]
	store := dfs.MustStore(h.Nodes, h.Replicas)
	f, err := spec.AddTo(store)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, spec.SegmentBlocks)
	if err != nil {
		b.Fatal(err)
	}
	exec := sim.NewExecutor(sim.NewCluster(h.Nodes, h.SlotsPerNode), store, *h.Cost)
	r := scheduler.Round{Segment: 0, Blocks: plan.Blocks(0), FreshJobs: 1}
	for _, a := range wf.Entries() {
		r.Jobs = append(r.Jobs, a.Job.Normalized())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ExecRound(r); err != nil {
			b.Fatal(err)
		}
	}
}

// Keep vclock referenced for the analytic benches' literal times.
var _ vclock.Time
