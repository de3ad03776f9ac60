package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"s3sched/internal/benchfmt"
	"s3sched/internal/experiments"
	"s3sched/internal/vclock"
)

// runCalibrate is `s3bench calibrate [-top 5] [-full]`: it
// grid-searches the simulator's cost-model and arrival parameters
// against the paper's qualitative Figure 4 claims
// (internal/experiments/claims.go) on the Figure 4 files built in
// memory under each candidate, and prints the best candidates. It is
// how DefaultParams was chosen; rerun it after changing the cost model.
func runCalibrate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("s3bench calibrate", flag.ExitOnError)
	top := fs.Int("top", 5, "how many best candidates to print")
	full := fs.Bool("full", false, "print violations of the best candidate")
	fs.Parse(args)

	type candidate struct {
		params     experiments.Params
		violations []string
	}
	var cands []candidate
	base := experiments.DefaultParams()
	for _, jobSetup := range []float64{0.2, 0.35} {
		for _, redSetup := range []float64{0.01, 0.02, 0.03} {
			for _, interGap := range []vclock.Duration{230, 240, 255} {
				for _, tag := range []float64{0, 0.03} {
					for _, intra := range []vclock.Duration{10, 25, 35} {
						for _, hw := range [][2]float64{{10, 25}, {14, 25}, {18, 25}, {14, 40}} {
							p := base
							p.Model.JobSetup = jobSetup
							p.Model.TagPenalty = tag
							p.Model.ReduceSetup = redSetup
							p.InterGap = interGap
							p.IntraGap = intra
							p.HeavyMapW, p.HeavyReduceW = hw[0], hw[1]
							cands = append(cands, candidate{params: p})
						}
					}
				}
			}
		}
	}
	// The candidates are independent: score them on every core, each into
	// its own slot, so the ranking never depends on the interleaving.
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range cands {
		wg.Add(1)
		slots <- struct{}{}
		go func(c *candidate, err *error) {
			defer func() { <-slots; wg.Done() }()
			c.violations, *err = score(c.params)
		}(&cands[i], &errs[i])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return len(cands[i].violations) < len(cands[j].violations)
	})
	total := experiments.NumPaperClaims()
	for i := 0; i < *top && i < len(cands); i++ {
		c := cands[i]
		fmt.Fprintf(stdout, "#%d  %d/%d claims ok  setup=%.2f redSetup=%.2f tag=%.2f inter=%v intra=%v heavy=(%g,%g)\n",
			i+1, total-len(c.violations), total,
			c.params.Model.JobSetup, c.params.Model.ReduceSetup, c.params.Model.TagPenalty,
			c.params.InterGap, c.params.IntraGap, c.params.HeavyMapW, c.params.HeavyReduceW)
		if *full && i == 0 {
			for _, v := range c.violations {
				fmt.Fprintln(stdout, "   still violated:", v)
			}
		}
	}
	return nil
}

// score checks p's paper claims the way CI gates DefaultParams: it
// builds the six bench/fig4-<panel>.jsonl files under p in memory and
// runs each through the serial sim cells of the paper's schemes.
func score(p experiments.Params) ([]string, error) {
	reports := make(map[string]*benchfmt.Report)
	for _, panel := range experiments.Fig4Panels() {
		wf, err := experiments.Fig4Workload(panel, p)
		if err == nil {
			reports[panel], err = experiments.RunCompare(wf, experiments.CompareOptions{Schedulers: experiments.PaperSchemes(), Pipelines: []bool{false}})
		}
		if err != nil {
			return nil, fmt.Errorf("fig4-%s: %w", panel, err)
		}
	}
	return experiments.CheckPaperClaims(reports), nil
}
