package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"s3sched/internal/mapreduce"
)

// env is where one invocation finds its binary and leaves its files, and
// the clock it measures on.
type env struct {
	bin    string     // cmd/s3cluster binary under test
	outDir string     // child logs, journals, traces, result files
	clock  *hostClock // nil: the wall clock
}

// cycle is one boot of the real cluster: set-up, one measured window,
// output check, teardown.
type cycle struct {
	spawned              time.Time // just before the master process was started
	load                 loadResult
	masterRSS, workerRSS float64 // VmHWM in MB; workers summed
	scrape               *scrapeDelta
	mismatches           []string
}

// runCycle boots master + 2 workers, warms the cluster up, measures one
// window and checks outputs. The cycle index seeds the job stream, so the
// same seed always submits the same sequence to the same corpus.
func runCycle(ctx context.Context, e env, s spec, seed int64, idx int, ref *reference, window time.Duration, scrape bool) (cycle, error) {
	var cy cycle
	dir := filepath.Join(e.outDir, fmt.Sprintf("%s-cycle%d", s.Name, idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cy, err
	}
	cl, err := bootCluster(ctx, e.bin, dir, s, seed)
	if err != nil {
		return cy, err
	}
	defer cl.kill()

	side := oneConnClient() // scrapes and output fetches, outside the two loop connections
	defer side.CloseIdleConnections()
	var first *scrapeSample
	ld := &loader{
		base: cl.base, factory: s.Factory, numReduce: s.NumReduce,
		params:   newParamStream(s, seed*1000+int64(idx)),
		inFlight: s.InFlight, warmup: s.Warmup, window: window,
		cpu: cl.cpu,
	}
	if scrape {
		ld.onWarm = func() (err error) {
			first, err = scrapeCluster(ctx, side, cl.base)
			return err
		}
	}
	if cy.load, err = ld.run(ctx); err != nil {
		return cy, fmt.Errorf("%s cycle %d: %w (logs in %s)", s.Name, idx, err, dir)
	}
	cy.spawned = cl.spawned
	if err := e.clock.waitFor(ctx, cy.load.endAt); err != nil {
		return cy, err
	}
	if slotRate(cy.load.done, s.InFlight, e.clock) == 0 {
		return cy, fmt.Errorf("%s cycle %d: no slot completed two jobs in %v: the window is too short for this workload", s.Name, idx, window)
	}
	if scrape {
		d, err := scrapeDeltaSince(ctx, side, cl.base, first)
		if err != nil {
			return cy, err
		}
		cy.scrape = &d
	}
	mp, wps := cl.pids()
	if cy.masterRSS, err = procPeakRSSmb(mp); err != nil {
		return cy, err
	}
	for _, p := range wps {
		mb, err := procPeakRSSmb(p)
		if err != nil {
			return cy, err
		}
		cy.workerRSS += mb
	}

	// Output check: the first measured job of every distinct parameter
	// against the sequential reference.
	params := make([]string, 0, len(cy.load.firstOf))
	for p := range cy.load.firstOf {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		id := cy.load.firstOf[p]
		var out []mapreduce.KV
		if err := getJSON(ctx, side, fmt.Sprintf("%s/jobs/%d/output", cl.base, id), &out); err != nil {
			return cy, err
		}
		want, err := ref.digest(p)
		if err != nil {
			return cy, err
		}
		if got := digestKVs(out); got != want {
			cy.mismatches = append(cy.mismatches,
				fmt.Sprintf("job %d %s(%s): output sha256 %s, sequential reference %s", id, s.Factory, p, got, want))
		}
	}
	return cy, nil
}

// bootMetrics are the end-to-end metrics of one boot, every duration in
// them on the host-speed clock, and what that clock read.
type bootMetrics struct {
	setupS                   float64
	jobsPerS                 float64
	latP50, latP90           float64
	masterCPUms, workerCPUms float64 // per job

	hostSpeed   float64 // the window's mean probe speed as a share of refSpeed
	rawJobsPerS float64 // jobs_per_s on the wall clock, for comparison
}

func (b bootMetrics) cpuMsPerJob() float64 { return b.masterCPUms + b.workerCPUms }

func (c cycle) metrics(slots int, clk *hostClock) bootMetrics {
	lats := c.load.latencies(clk)
	m := bootMetrics{
		setupS:      clk.between(c.spawned, c.load.warmAt),
		jobsPerS:    slotRate(c.load.done, slots, clk),
		latP50:      quantile(lats, 0.5),
		latP90:      quantile(lats, 0.9),
		hostSpeed:   clk.speedRatio(c.load.warmAt, c.load.endAt),
		rawJobsPerS: slotRate(c.load.done, slots, nil),
	}
	// CPU per job is the cluster's CPU rate over its job rate, both over
	// the same window: CPU time is continuous, so dividing it by a count of
	// completions would bring the count's edge effects in.
	master, workers := c.load.cpuMs(clk)
	m.masterCPUms = ratio(master/c.load.seconds(clk), m.jobsPerS)
	m.workerCPUms = ratio(workers/c.load.seconds(clk), m.jobsPerS)
	return m
}

// e2eResult combines the boots of one workload into the end-to-end
// metrics. Each boot is its own cluster with its own window: set-up, rate
// and CPU are the median of the boots, the latency percentiles are taken
// over the latencies of all windows pooled, so that p90 has enough samples
// beyond it. windowS is measured wall time; everything else is on the
// host-speed clock.
type e2eResult struct {
	cycles []cycle
	boots  []bootMetrics

	setupS         float64
	jobsPerS       float64
	latP50, latP90 float64
	cpuMsPerJob    float64
	masterCPUms    float64 // per job
	workerCPUms    float64 // per job

	attempted, failed int
	latSamples        int
	windowS           float64
	orderViolations   int
	mismatches        []string
}

func pool(cycles []cycle, slots int, clk *hostClock) e2eResult {
	r := e2eResult{cycles: cycles}
	var setups, lats, rates, cpus, mcpus, wcpus []float64
	var completed int
	for _, c := range cycles {
		completed += len(c.load.done)
		r.failed += c.load.failed + len(c.mismatches)
		r.windowS += c.load.endAt.Sub(c.load.warmAt).Seconds()
		r.orderViolations += c.load.orderViolations
		r.mismatches = append(r.mismatches, c.mismatches...)
		b := c.metrics(slots, clk)
		r.boots = append(r.boots, b)
		setups = append(setups, b.setupS)
		rates = append(rates, b.jobsPerS)
		lats = append(lats, c.load.latencies(clk)...)
		cpus, mcpus, wcpus = append(cpus, b.cpuMsPerJob()), append(mcpus, b.masterCPUms), append(wcpus, b.workerCPUms)
	}
	r.attempted = completed + r.failed - len(r.mismatches)
	r.latSamples = completed
	r.setupS = median(setups)
	r.jobsPerS = median(rates)
	r.latP50, r.latP90 = quantile(lats, 0.5), quantile(lats, 0.9)
	r.cpuMsPerJob, r.masterCPUms, r.workerCPUms = median(cpus), median(mcpus), median(wcpus)
	return r
}

// runEndToEnd measures one workload with tracing off: cycles boots of the
// cluster, the measured seconds split evenly between them.
func runEndToEnd(ctx context.Context, e env, s spec, seed int64, seconds float64, cycles int, ref *reference, scrape bool) (e2eResult, error) {
	window := time.Duration(seconds / float64(cycles) * float64(time.Second))
	var cs []cycle
	for i := 0; i < cycles; i++ {
		cy, err := runCycle(ctx, e, s, seed, i, ref, window, scrape)
		if err != nil {
			return e2eResult{}, err
		}
		cs = append(cs, cy)
	}
	return pool(cs, s.InFlight, e.clock), nil
}
