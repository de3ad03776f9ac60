// Command perf is the repository's wall-clock benchmark: it boots real
// s3cluster master and worker processes, drives them over POST /jobs in a
// saturated closed loop, checks outputs against a sequential reference and
// reports five end-to-end metrics per workload; a traced pass adds a
// per-layer table. README.md in this directory describes the workloads,
// every metric and how to read them; BENCHMARK.json at the repository root
// is the contract this program is run under.
//
//	bash bench/perf/run.sh --workload wc-shared --seed 1 --seconds 18 --trace 0
//	go run -C bench/perf . -seed 1                  # every workload, both passes
//	go run -C bench/perf . -seed 1 -repeat 6        # repeatability check
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// cyclesPerRun is how many times an end-to-end run boots the cluster: the
// measured seconds are split between the boots and setup_s is their median.
const cyclesPerRun = 3

// runTimeout bounds one pass over one workload; on expiry the children's
// process groups are killed and the command fails.
const runTimeout = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0, 1, or -1 for both passes
	out      string
	repeat   int
	cluster  string
}

func main() {
	probeIfAsked()
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the job mix and of the cluster's corpus generators")
	flag.Float64Var(&o.seconds, "seconds", 18, "measured seconds per pass and workload")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only; 1: per-layer pass only; default both")
	flag.StringVar(&o.out, "out", "", "directory for child logs, journals, traces and result files (default <repo>/.bench_build/out)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the end-to-end pass this many times on consecutive seeds and check the two halves agree")
	flag.StringVar(&o.cluster, "s3cluster", "", "s3cluster binary to measure (default: build ./cmd/s3cluster)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// findRepoRoot walks up from the working directory to the directory whose
// go.mod declares module s3sched.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module s3sched" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the s3sched repository: no go.mod declaring module s3sched above the working directory")
		}
		dir = parent
	}
}

func run(o options) (bool, error) {
	if o.seconds < 3 {
		return false, fmt.Errorf("-seconds %v: need at least 3", o.seconds)
	}
	specs := workloads
	if o.workload != "" {
		s, err := findWorkload(o.workload)
		if err != nil {
			return false, err
		}
		specs = []spec{s}
	}
	root, err := findRepoRoot()
	if err != nil {
		return false, err
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	e := env{bin: o.cluster, outDir: o.out}
	if e.bin == "" {
		if e.bin, err = buildCluster(root, filepath.Join(root, ".bench_build")); err != nil {
			return false, err
		}
	}

	// Children die with their process groups on SIGINT / SIGTERM too: the
	// context reaches every boot and loop, and each kills what it started.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	host := gatherHost(root, o.out)
	fmt.Printf("perf: commit %s, %d cpus, GOMAXPROCS %d, %s, kernel %s, output in %s (%s)\n",
		host.Commit, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernel, o.out, host.OutFS)
	if len(host.OtherClusters) > 0 {
		fmt.Printf("perf: WARNING: other s3cluster processes are running (pids %v) and will compete for the cores\n", host.OtherClusters)
	}
	if e.clock, err = startHostClock(); err != nil {
		return false, err
	}
	defer e.clock.stop()

	if o.repeat > 0 {
		return repeat(ctx, e, specs, o)
	}
	file := resultFile{Host: host}
	allOK := true
	for _, s := range specs {
		rep, err := measure(ctx, e, s, o.seed, o.seconds, o.trace)
		if err != nil {
			return false, err
		}
		file.Workloads = append(file.Workloads, rep)
		allOK = allOK && rep.Correct
	}
	path := filepath.Join(o.out, fmt.Sprintf("result-seed%d.json", o.seed))
	if err := writeJSON(path, file); err != nil {
		return false, err
	}
	fmt.Printf("perf: wrote %s\n", path)
	if len(specs) == 1 && o.trace >= 0 {
		// The contract's result line: last on standard output.
		rep := file.Workloads[0]
		res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
		if o.trace == 1 {
			res.Metrics = rep.PerLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return allOK, nil
}

// measure runs the requested passes over one workload and prints them.
func measure(ctx context.Context, e env, s spec, seed int64, seconds float64, trace int) (workloadReport, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rep := workloadReport{Workload: s.Name, Seed: seed, Correct: true}
	ref := newReference(s, seed)
	fmt.Printf("\n== %s (seed %d): %s\n", s.Name, seed, s.Why)

	if trace != 1 {
		r, err := runEndToEnd(ctx, e, s, seed, seconds, cyclesPerRun, ref, false)
		if err != nil {
			return rep, err
		}
		rep.setHostSpeed(r)
		got := r.metrics()
		if rep.EndToEnd, err = metricsOf(endToEndDefs, got); err != nil {
			return rep, err
		}
		rep.absorb(r)
		rep.Samples, rep.Beyond = r.latSamples, samplesBeyond(r.latSamples, 0.9)
		printTable(os.Stdout, fmt.Sprintf("end-to-end (%d boots, %.1f s measured, closed loop of %d, durations on the host-speed clock):", cyclesPerRun, r.windowS, s.InFlight), endToEndDefs, got)
		for i, b := range r.boots {
			fmt.Printf("  boot %d: set-up %.3f s, %d jobs, %.3f jobs/s, p50 %.4f s, p90 %.4f s, %.2f cpu ms/job; host speed %.3f, %.3f jobs/s on the wall clock\n",
				i, b.setupS, len(r.cycles[i].load.done), b.jobsPerS, b.latP50, b.latP90, b.cpuMsPerJob(), b.hostSpeed, b.rawJobsPerS)
		}
		fmt.Printf("  attempted %d, failed %d, latency samples %d (%d beyond p90), order violations %d%s\n",
			rep.Attempted, rep.Failed, rep.Samples, rep.Beyond, rep.OrderViolations, driftNote(rep.HostDrift))
	}
	if trace != 0 {
		lr, err := runLayers(ctx, e, s, seed, seconds, ref)
		if err != nil {
			return rep, err
		}
		if rep.PerLayer, err = metricsOf(perLayerDefs, lr.metrics); err != nil {
			return rep, err
		}
		rep.Trace = lr.tracePath
		if trace == 1 {
			rep.absorb(lr.e2e)
			rep.setHostSpeed(lr.e2e)
		}
		printTable(os.Stdout, "per layer (scraped counters, traced replica, probes):", perLayerDefs, lr.metrics)
		fmt.Printf("  trace written to %s\n", lr.tracePath)
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("  OUTPUT MISMATCH: %s\n", m)
	}
	return rep, nil
}

func driftNote(drift bool) string {
	if drift {
		return "  [host_drift: the host's speed differed by more than a tenth between the boots]"
	}
	return ""
}

// setHostSpeed records what the host-speed clock read in each boot's
// window, and flags boots that saw hosts more than a tenth apart: the clock
// takes such a difference out, but not to the last per cent.
func (rep *workloadReport) setHostSpeed(r e2eResult) {
	rep.HostSpeed = nil
	lo, hi := 0.0, 0.0
	for i, b := range r.boots {
		rep.HostSpeed = append(rep.HostSpeed, b.hostSpeed)
		if i == 0 || b.hostSpeed < lo {
			lo = b.hostSpeed
		}
		if b.hostSpeed > hi {
			hi = b.hostSpeed
		}
	}
	rep.HostDrift = lo > 0 && hi/lo > 1.10
}

// absorb takes a pass's failure accounting into the report.
func (rep *workloadReport) absorb(r e2eResult) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	rep.OrderViolations += r.orderViolations
	rep.Mismatches = append(rep.Mismatches, r.mismatches...)
	rep.Correct = rep.Correct && len(r.mismatches) == 0
}

// repeat runs the end-to-end pass o.repeat times per workload on
// consecutive seeds, prints median and quartiles of every metric, and
// compares the odd-numbered runs with the even-numbered ones: two
// interleaved sets of the same code must agree within each metric's bound.
func repeat(ctx context.Context, e env, specs []spec, o options) (bool, error) {
	if o.repeat < 4 {
		return false, fmt.Errorf("-repeat %d: need at least 4 runs to compare two halves", o.repeat)
	}
	ok := true
	for _, s := range specs {
		runs := make(map[string][]float64)
		for i := 0; i < o.repeat; i++ {
			rep, err := measure(ctx, e, s, o.seed+int64(i), o.seconds, 0)
			if err != nil {
				return false, err
			}
			ok = ok && rep.Correct
			for name, v := range rep.EndToEnd {
				runs[name] = append(runs[name], v.Value)
			}
		}
		fmt.Printf("\n== %s: %d runs, seeds %d..%d\n", s.Name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
		fmt.Printf("  %-20s %12s %12s %12s %8s   %s\n", "metric", "q1", "median", "q3", "spread", "odd runs vs even runs")
		for _, d := range endToEndDefs {
			q1, q2, q3 := quartiles(runs[d.Name])
			var odd, even []float64
			for i, v := range runs[d.Name] {
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			a, b := median(odd), median(even)
			gap := worseBy(a, b, d.Better)
			if gap < 0 {
				gap = worseBy(b, a, d.Better)
			}
			verdict := "agree"
			if gap > d.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %7.1f%%   %.4f vs %.4f: %.1f%% apart, bound %.0f%%: %s\n",
				d.Name, q1, q2, q3, 100*ratio(q3-q1, q2), a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}
