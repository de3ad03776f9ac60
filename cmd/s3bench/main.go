// Command s3bench regenerates the paper's evaluation (§V) that is not
// a workload file and prints rows in the paper's presentation: Table I
// workload profile, Figure 3 combined-job cost, the §III analytic
// examples, the DESIGN.md ablations and the beyond-paper studies.
// Figure 4's six panels, like every other scheduler comparison, are
// workload files run by s3compare (bench/fig4-a.jsonl … fig4-f.jsonl).
//
// Usage:
//
//	s3bench                 # run everything
//	s3bench -exp table1     # one experiment
//	s3bench -exp ablations  # X1, X3, X4
//
// Two subcommands carry their own flags (s3bench <subcommand> -h):
//
//	s3bench demo            # Algorithm 1 narrated on a tiny real cluster
//	s3bench calibrate       # grid-search the cost model against the paper's claims
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"s3sched/internal/experiments"
	"s3sched/internal/vclock"
)

// subcommands each parse their own flags and print to stdout.
var subcommands = map[string]func(args []string, stdout io.Writer) error{
	"demo":      runDemo,
	"calibrate": runCalibrate,
}

// runSubcommand runs the named subcommand and reports its exit code.
func runSubcommand(name string, args []string, stdout, stderr io.Writer) int {
	if err := subcommands[name](args, stdout); err != nil {
		fmt.Fprintf(stderr, "s3bench %s: %v\n", name, err)
		return 1
	}
	return 0
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
	exp := flag.String("exp", "all", "experiment: table1|fig3|examples|ablations|jitter|poisson|estimator|all")
	traceJSON := flag.String("tracejson", "", "write a Chrome trace (chrome://tracing) of a fixed demo workload to this file and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want demo | calibrate, or flags only)\n", flag.Arg(0))
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

	ran := false
	for _, e := range experimentList {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// experimentList is every -exp, in the order -exp all runs them.
var experimentList = []struct {
	name string
	run  func() error
}{
	{"table1", runTable1}, {"fig3", runFig3}, {"examples", runExamples}, {"ablations", runAblations},
	{"jitter", runJitter}, {"poisson", runPoisson}, {"estimator", runEstimator},
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
	fmt.Println("== Figure 3: cost of combined jobs (n merged wordcount jobs, in-process cluster) ==")
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
