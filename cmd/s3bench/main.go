// Command s3bench regenerates every table and figure of the paper's
// evaluation (§V) and prints rows in the paper's presentation: Table I
// workload profile, Figure 3 combined-job cost, the six Figure 4
// panels (normalized TET/ART per scheme), the §III analytic examples,
// and the DESIGN.md ablations.
//
// Usage:
//
//	s3bench                 # run everything
//	s3bench -exp fig4a      # one experiment
//	s3bench -exp fig4       # all six panels + claim check
//	s3bench -exp ablations  # X1..X5
//
// Four subcommands carry the rest of the virtual-time tooling, each
// with its own flags (s3bench <subcommand> -h):
//
//	s3bench demo            # Algorithm 1 narrated on a tiny real cluster
//	s3bench sim             # a custom scenario: schemes × arrival pattern
//	s3bench replay          # a recorded CSV arrival trace through schemes
//	s3bench calibrate       # grid-search the cost model against the paper's claims
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"s3sched/internal/dfs"
	"s3sched/internal/experiments"
	"s3sched/internal/runtime"
	"s3sched/internal/vclock"
)

// subcommands each parse their own flags and print to stdout.
var subcommands = map[string]func(args []string, stdout io.Writer) error{
	"demo":      runDemo,
	"sim":       runSim,
	"replay":    runReplay,
	"calibrate": runCalibrate,
}

// usageError marks a bad flag value: one line on stderr, exit 2.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// runSubcommand runs the named subcommand and reports its exit code:
// 2 for a usage error, 1 for any other failure.
func runSubcommand(name string, args []string, stdout, stderr io.Writer) int {
	err := subcommands[name](args, stdout)
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "s3bench %s: %v\n", name, err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		os.Exit(runSubcommand(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
	}
	exp := flag.String("exp", "all", "experiment: table1|fig3|fig4|fig4a..fig4f|examples|ablations|window|distributed|jitter|poisson|taxonomy|estimator|pipeline|faults|cache|all")
	jsonPath := flag.String("json", "", "also write the Figure 4 panels + claim check as JSON to this file")
	traceJSON := flag.String("tracejson", "", "write a Chrome trace (chrome://tracing) of a fixed demo workload to this file and exit")
	faultRate := flag.Float64("faultrate", 0.02, "faults experiment: max transient block-failure rate in [0,1)")
	faultSeed := flag.Int64("faultseed", 42, "faults experiment: fault schedule seed (same seed, same schedule)")
	faultJSON := flag.String("faultjson", "", "faults experiment: also write the results as JSON to this file")
	cacheMB := flag.Int("cachemb", 4096, "cache experiment: per-node block-cache budget in MB (4096 fits a node's share of the 160 GB input)")
	cacheFrac := flag.Float64("cachefrac", 0.1, "cache experiment: cached scan cost as a fraction of disk cost, in [0,1]")
	cachePolicy := flag.String("cachepolicy", "all", "cache experiment: eviction policy lru|cursor, or all to sweep both")
	cacheJSON := flag.String("cachejson", "", "cache experiment: also write the results as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want demo | sim | replay | calibrate, or flags only)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *traceJSON != "" {
		if err := writeFile(*traceJSON, writeTraceJSON); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceJSON)
		return
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	var err error
	switch *exp {
	case "all":
		err = firstErr(runTable1, runFig3, runExamples, runFig4All, runAblations, runWindowStudy, runDistributed, runJitter, runPoisson, runTaxonomy, runEstimator, runPipeline,
			func() error { return runFaults(*faultRate, *faultSeed, *faultJSON) },
			func() error { return runCache(*cacheMB, *cacheFrac, *cachePolicy, *cacheJSON) })
	case "table1":
		err = runTable1()
	case "fig3":
		err = runFig3()
	case "examples":
		err = runExamples()
	case "fig4":
		err = runFig4All()
	case "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f":
		err = runFig4Panel((*exp)[4:])
	case "ablations":
		err = runAblations()
	case "window":
		err = runWindowStudy()
	case "distributed":
		err = runDistributed()
	case "jitter":
		err = runJitter()
	case "poisson":
		err = runPoisson()
	case "taxonomy":
		err = runTaxonomy()
	case "estimator":
		err = runEstimator()
	case "pipeline":
		err = runPipeline()
	case "faults":
		err = runFaults(*faultRate, *faultSeed, *faultJSON)
	case "cache":
		err = runCache(*cacheMB, *cacheFrac, *cachePolicy, *cacheJSON)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// jsonScheme is one scheme's metrics in the machine-readable record.
type jsonScheme struct {
	TET     float64 `json:"tetSeconds"`
	ART     float64 `json:"artSeconds"`
	NormTET float64 `json:"tetVsS3"`
	NormART float64 `json:"artVsS3"`
}

// jsonReport is the machine-readable regression record: every Figure 4
// scheme's metrics plus the claim-check outcome.
type jsonReport struct {
	Panels         map[string]map[string]jsonScheme `json:"panels"`
	ClaimsTotal    int                              `json:"claimsTotal"`
	ClaimsHeld     int                              `json:"claimsHeld"`
	ClaimsViolated []string                         `json:"claimsViolated,omitempty"`
}

func writeJSON(path string) error {
	panels, err := experiments.RunAllPanels(experiments.DefaultParams())
	if err != nil {
		return err
	}
	rep := jsonReport{Panels: map[string]map[string]jsonScheme{}}
	for id, p := range panels {
		m := map[string]jsonScheme{}
		for _, row := range p.Report.Rows {
			m[row.Scheme] = jsonScheme{row.TET.Seconds(), row.ART.Seconds(), row.NormTET, row.NormART}
		}
		rep.Panels["fig4"+id] = m
	}
	violations := experiments.CheckPaperClaims(panels)
	rep.ClaimsTotal = experiments.NumPaperClaims()
	rep.ClaimsHeld = rep.ClaimsTotal - len(violations)
	rep.ClaimsViolated = violations

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// writeRecord writes a study's machine-readable record as indented
// JSON and says so; an empty path means none was asked for.
func writeRecord(path string, rec any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func firstErr(fns ...func() error) error {
	for _, fn := range fns {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func runTable1() error {
	fmt.Println("== Table I: wordcount details (normal workload), real engine, scaled input ==")
	res, err := experiments.Table1(experiments.DefaultTable1Config())
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %d bytes (paper: 160 GB)\n", "Input size", res.InputBytes)
	fmt.Printf("%-28s %d (paper: ~250 million at scale; projected %d)\n", "Map output records", res.MapOutputRecords, res.ProjMapOutRecords)
	fmt.Printf("%-28s %d (paper: ~60-80 thousand)\n", "Reduce output records", res.ReduceOutRecords)
	fmt.Printf("%-28s %d bytes\n", "Map output size", res.MapOutputBytes)
	fmt.Printf("%-28s %d bytes (paper: ~1.5 MB)\n", "Reduce output size", res.ReduceOutBytes)
	fmt.Printf("%-28s %d map / %d reduce\n", "Tasks", res.MapTasks, res.ReduceTasks)
	fmt.Printf("%-28s %.0fx\n\n", "Scale factor to paper", res.ScaleToPaper)
	return nil
}

func runFig3() error {
	fmt.Println("== Figure 3: cost of combined jobs (n merged wordcount jobs, real engine) ==")
	points, err := experiments.Fig3(experiments.DefaultFig3Config())
	if err != nil {
		return err
	}
	base := points[0].Total.Seconds()
	fmt.Printf("%4s %12s %12s %12s %10s %10s\n", "n", "total", "map", "reduce", "vs n=1", "scans")
	for _, p := range points {
		fmt.Printf("%4d %12v %12v %12v %9.2fx %10d\n",
			p.Jobs, p.Total.Round(100), p.MapPhase.Round(100), p.ReducePhase.Round(100),
			p.Total.Seconds()/base, p.BlockReads)
	}
	fmt.Println("(paper: +25.5% total at n=10; one physical scan regardless of n)")
	fmt.Println()

	fmt.Println("== Figure 3 (cost model, paper scale: 2560 blocks / 40 slots) ==")
	simPoints, err := experiments.Fig3Sim(experiments.DefaultParams(), 10)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %12s %12s %12s %10s\n", "n", "total", "map", "reduce", "vs n=1")
	for _, p := range simPoints {
		fmt.Printf("%4d %12s %12s %12s %9.2fx\n", p.Jobs, p.Total, p.MapTime, p.Reduce, p.VsSingle)
	}
	fmt.Println("(paper: 1.255x at n=10)")
	fmt.Println()
	return nil
}

func runExamples() error {
	fmt.Println("== §III Examples 1-3: two 100s jobs, second arriving at +20s / +80s ==")
	fmt.Printf("%-9s %8s %8s %8s   %8s %8s\n", "", "offset", "TET", "ART", "paperTET", "paperART")
	type expect struct {
		scheme   string
		offset   vclock.Time
		tet, art float64
	}
	cases := []expect{
		{"fifo", 20, 200, 140}, {"mrshare", 20, 120, 110}, {"s3", 20, 120, 100},
		{"fifo", 80, 200, 110}, {"mrshare", 80, 180, 140}, {"s3", 80, 180, 100},
	}
	for _, c := range cases {
		tet, art, err := experiments.TwoJobExample(c.scheme, c.offset)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %8v %8.0f %8.0f   %8.0f %8.0f\n",
			c.scheme, c.offset, tet.Seconds(), art.Seconds(), c.tet, c.art)
	}
	fmt.Println()
	return nil
}

var panelTitles = map[string]string{
	"a": "Figure 4(a): sparse pattern, normal workload, 64 MB blocks",
	"b": "Figure 4(b): dense pattern, normal workload, 64 MB blocks",
	"c": "Figure 4(c): sparse pattern, heavy workload, 64 MB blocks",
	"d": "Figure 4(d): sparse pattern, normal workload, 128 MB blocks",
	"e": "Figure 4(e): sparse pattern, normal workload, 32 MB blocks",
	"f": "Figure 4(f): selection workload (TPC-H lineitem), 64 MB blocks",
}

func runFig4Panel(panel string) error {
	res, err := experiments.Fig4Panel(panel, experiments.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Printf("== %s ==\n", panelTitles[panel])
	fmt.Print(res.Report.String())
	fmt.Println()
	return nil
}

func runFig4All() error {
	panels, err := experiments.RunAllPanels(experiments.DefaultParams())
	if err != nil {
		return err
	}
	for _, p := range []string{"a", "b", "c", "d", "e", "f"} {
		fmt.Printf("== %s ==\n", panelTitles[p])
		fmt.Print(panels[p].Report.String())
		fmt.Println()
	}
	violations := experiments.CheckPaperClaims(panels)
	fmt.Printf("paper-shape claims: %d/%d hold\n", experiments.NumPaperClaims()-len(violations), experiments.NumPaperClaims())
	for _, v := range violations {
		fmt.Println("  violated:", v)
	}
	fmt.Println()
	return nil
}

func runWindowStudy() error {
	fmt.Println("== Beyond the paper: time-window MRShare vs S3 (unknown job patterns) ==")
	rows, err := experiments.WindowStudy(experiments.DefaultParams(), []vclock.Duration{30, 120, 240, 480})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s\n", "variant", "TET", "ART")
	for _, r := range rows {
		fmt.Printf("%-14s %12s %12s\n", r.Scheme, r.TET, r.ART)
	}
	fmt.Println("(short windows forfeit sharing; long windows re-create MRShare's waiting)")
	fmt.Println()
	return nil
}

func runDistributed() error {
	fmt.Println("== Distributed substrate: cluster-wide scans, S3 vs FIFO (TCP workers) ==")
	res, err := experiments.DistributedScanSavings(experiments.DefaultDistributedConfig())
	if err != nil {
		return err
	}
	fmt.Printf("%d workers, %d jobs, %d blocks\n", res.Workers, res.Jobs, res.Blocks)
	fmt.Printf("S3:   %d block reads in %d rounds\n", res.S3Reads, res.S3Rounds)
	fmt.Printf("FIFO: %d block reads in %d rounds\n", res.FIFOReads, res.FIFORounds)
	fmt.Printf("outputs identical: %v\n\n", res.OutputAgree)
	return nil
}

func runJitter() error {
	fmt.Println("== Robustness: fig4a under ±15% arrival jitter (40 seeded trials) ==")
	res, err := experiments.JitterStudy(experiments.DefaultParams(), 40, 0.15, 42)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %22s %22s %14s\n", "scheme", "TET/S3 mean [min,max]", "ART/S3 mean [min,max]", "S3 wins (T/A)")
	for _, s := range res {
		fmt.Printf("%-8s %8.2f [%.2f,%.2f]    %8.2f [%.2f,%.2f]    %d/%d of %d\n",
			s.Scheme, s.MeanTET, s.MinTET, s.MaxTET, s.MeanART, s.MinART, s.MaxART,
			s.S3WinsTET, s.S3WinsART, s.Trials)
	}
	fmt.Println("(S3's advantage survives arrival perturbation — not a calibration knife-edge)")
	fmt.Println()
	return nil
}

func runPoisson() error {
	fmt.Println("== Queueing view: Poisson arrivals, load sweep (20 jobs per point) ==")
	points, err := experiments.PoissonStudy(experiments.DefaultParams(),
		[]float64{0.2, 0.5, 0.8, 1.0, 1.3, 1.8}, 20, 7)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %12s %12s %10s\n", "rho", "meanGap", "S3 ART", "FIFO ART", "ART ratio")
	for _, pt := range points {
		fmt.Printf("%6.1f %12s %12s %12s %9.2fx\n", pt.Rho, pt.MeanGap, pt.S3ART, pt.FIFOART, pt.ARTRatio)
	}
	fmt.Println("(FIFO queues blow up past rho=1; S3 absorbs load into bigger shared batches)")
	fmt.Println()
	return nil
}

func runTaxonomy() error {
	fmt.Println("== §II-B scheduler taxonomy, measured (sparse normal workload) ==")
	rows, err := experiments.TaxonomyStudy(experiments.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s\n", "scheme", "TET", "ART")
	for _, r := range rows {
		fmt.Printf("%-6s %12s %12s\n", r.Scheme, r.TET, r.ART)
	}
	fmt.Println("(fair = partial utilization: no blocking, but no sharing either —")
	fmt.Println(" for identical-length jobs it is strictly dominated; S3 wins both)")
	fmt.Println()
	return nil
}

func runEstimator() error {
	fmt.Println("== §IV-D1 completion-time estimation accuracy ==")
	res, err := experiments.EstimatorStudy(experiments.DefaultParams(), 30)
	if err != nil {
		return err
	}
	fmt.Printf("observed %d rounds, predicted %d active jobs mid-run\n", res.ObservedRounds, res.PredictedJobs)
	fmt.Printf("mean abs. error %.1f%% of job lifetime (worst %.1f%%)\n\n", 100*res.MAPE, 100*res.MaxErr)
	return nil
}

func runPipeline() error {
	// The title keeps the name of the flag that once picked single-mode
	// runs, so the study's output stays byte-identical to every recorded
	// copy of it.
	fmt.Printf("== Stage pipelining: reduce of round N under scan of round N+1 (S3, %d reduce workers, -pipeline=both) ==\n",
		runtime.DefaultReduceWorkers)
	res, err := experiments.PipelineStudy(experiments.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Println("(gain tracks the reduce share of a round: heavy reduce output hides under the next scan)")
	fmt.Println()
	return nil
}

// faultsJSON is the machine-readable fault-study record
// (bench/faults.json).
type faultsJSON struct {
	Seed     int64             `json:"seed"`
	Replicas int               `json:"replicas"`
	Rates    []float64         `json:"rates"`
	Points   []faultsJSONPoint `json:"points"`
}

type faultsJSONPoint struct {
	Rate    float64                       `json:"rate"`
	Schemes map[string]faultsJSONSchemeRe `json:"schemes"`
}

type faultsJSONSchemeRe struct {
	TET            float64 `json:"tetSeconds"`
	ART            float64 `json:"artSeconds"`
	Rounds         int     `json:"rounds"`
	Completed      int     `json:"completed"`
	Failed         int     `json:"failed"`
	Retries        int     `json:"retries"`
	FailedAttempts int     `json:"failedAttempts"`
	RequeuedRounds int     `json:"requeuedRounds"`
}

func runFaults(rate float64, seed int64, jsonPath string) error {
	fmt.Printf("== Fault tolerance: TET/ART degradation under deterministic fault injection (seed %d) ==\n", seed)
	res, err := experiments.FaultStudy(rate, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-6s %10s %10s %8s %6s %6s %8s\n", "rate", "scheme", "TET(s)", "ART(s)", "rounds", "done", "fail", "retries")
	rec := faultsJSON{Seed: res.Seed, Replicas: res.Replicas, Rates: res.Rates}
	for _, pt := range res.Points {
		jp := faultsJSONPoint{Rate: pt.Rate, Schemes: make(map[string]faultsJSONSchemeRe)}
		for _, name := range []string{"s3", "fifo", "mrs1"} {
			sr, ok := pt.Schemes[name]
			if !ok {
				continue
			}
			fmt.Printf("%-8.3f %-6s %10.1f %10.1f %8d %6d %6d %8d\n",
				pt.Rate, name, sr.Summary.TET.Seconds(), sr.Summary.ART.Seconds(),
				sr.Rounds, sr.Completed, sr.Failed, sr.Faults.Retries)
			jp.Schemes[name] = faultsJSONSchemeRe{
				TET:            sr.Summary.TET.Seconds(),
				ART:            sr.Summary.ART.Seconds(),
				Rounds:         sr.Rounds,
				Completed:      sr.Completed,
				Failed:         sr.Failed,
				Retries:        sr.Faults.Retries,
				FailedAttempts: sr.Faults.FailedAttempts,
				RequeuedRounds: sr.Faults.RequeuedRounds,
			}
		}
		rec.Points = append(rec.Points, jp)
	}
	fmt.Println("(2-way replication: one crashed node leaves every block readable, so all jobs finish)")
	fmt.Println()
	return writeRecord(jsonPath, rec)
}

// cacheJSONRec is the machine-readable cache-study record
// (bench/cache-sweep.json).
type cacheJSONRec struct {
	Frac     float64           `json:"frac"`
	Policies []string          `json:"policies"`
	Points   []cacheJSONPoint  `json:"points"`
	Engine   []cacheJSONEngine `json:"engine"`
}

type cacheJSONPoint struct {
	Policy       string  `json:"policy"` // "" on the cache-off baseline
	CacheMB      int     `json:"cacheMB"`
	TET          float64 `json:"tetSeconds"`
	ART          float64 `json:"artSeconds"`
	Rounds       int     `json:"rounds"`
	CachedBlocks int64   `json:"cachedBlocks"`
	HitRatio     float64 `json:"hitRatio"`
	Evictions    int64   `json:"evictions"`
	Prefetches   int64   `json:"prefetches"`
}

type cacheJSONEngine struct {
	Policy           string `json:"policy"`
	Jobs             int    `json:"jobs"`
	OutputsIdentical bool   `json:"outputsIdentical"`
	CacheHits        int64  `json:"cacheHits"`
	Prefetches       int64  `json:"prefetches"`
	ColdReads        int64  `json:"coldReads"`
	WarmReads        int64  `json:"warmReads"`
}

func runCache(perNodeMB int, frac float64, policy, jsonPath string) error {
	if perNodeMB <= 0 {
		return fmt.Errorf("-cachemb must be positive, got %d", perNodeMB)
	}
	var policies []string
	if policy != "all" {
		if !dfs.ValidPolicy(policy) {
			return fmt.Errorf("-cachepolicy %q: want one of %v, or all", policy, dfs.Policies())
		}
		policies = []string{policy}
	}
	fmt.Printf("== Block cache: repeated-arrival workload (sparse pattern, S3), warm reads at %.2fx disk cost ==\n", frac)
	res, err := experiments.CacheStudy([]int{0, perNodeMB / 2, perNodeMB}, frac, policies)
	if err != nil {
		return err
	}
	rec := cacheJSONRec{Frac: res.Frac, Policies: res.Policies}
	fmt.Printf("%-8s %-10s %10s %10s %8s %10s %9s %10s %10s\n", "policy", "cache/node", "TET(s)", "ART(s)", "rounds", "warmReads", "hitRatio", "evictions", "prefetches")
	for _, pt := range res.Points {
		name := pt.Policy
		if name == "" {
			name = "off"
		}
		fmt.Printf("%-8s %7d MB %10.1f %10.1f %8d %10d %8.1f%% %10d %10d\n",
			name, pt.CacheMB, pt.Summary.TET.Seconds(), pt.Summary.ART.Seconds(),
			pt.Rounds, pt.CachedBlocks, 100*pt.HitRatio, pt.Evictions, pt.Prefetches)
		rec.Points = append(rec.Points, cacheJSONPoint{
			Policy:       pt.Policy,
			CacheMB:      pt.CacheMB,
			TET:          pt.Summary.TET.Seconds(),
			ART:          pt.Summary.ART.Seconds(),
			Rounds:       pt.Rounds,
			CachedBlocks: pt.CachedBlocks,
			HitRatio:     pt.HitRatio,
			Evictions:    pt.Evictions,
			Prefetches:   pt.Prefetches,
		})
	}
	for _, eng := range res.Engine {
		rec.Engine = append(rec.Engine, cacheJSONEngine{
			Policy:           eng.Policy,
			Jobs:             eng.Jobs,
			OutputsIdentical: eng.OutputsIdentical,
			CacheHits:        eng.CacheHits,
			Prefetches:       eng.Prefetches,
			ColdReads:        eng.ColdReads,
			WarmReads:        eng.WarmReads,
		})
		fmt.Printf("engine check [%s]: %d jobs, outputs identical: %v, %d cache hits, %d prefetches (%d cold reads -> %d warm)\n",
			eng.Policy, eng.Jobs, eng.OutputsIdentical, eng.CacheHits, eng.Prefetches, eng.ColdReads, eng.WarmReads)
	}
	fmt.Println("(LRU under a circular scan is a cliff: an undersized cache evicts each block")
	fmt.Println(" just before the cursor returns; the cursor policy pins and prefetches the")
	fmt.Println(" scheduler's next segments)")
	fmt.Println()
	return writeRecord(jsonPath, rec)
}

func runAblations() error {
	fmt.Println("== Ablations (DESIGN.md §5) ==")
	results, err := experiments.AllAblations(experiments.DefaultParams())
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Println(r.String())
	}
	return nil
}
