package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"s3sched/internal/vclock"
)

// Robustness study: the pinned Figure 4 results come from one exact
// arrival sequence. JitterStudy perturbs every arrival time by a
// seeded uniform factor and re-runs the sparse normal-workload panel
// many times, reporting the distribution of FIFO/S^3 and MRShare/S^3
// ratios. If S^3's advantage held only at the calibrated knife-edge,
// it would vanish here.

// JitterSummary aggregates one scheme's ratio-to-S^3 across trials.
type JitterSummary struct {
	Scheme  string
	Trials  int
	MeanTET float64
	MinTET  float64
	MaxTET  float64
	MeanART float64
	MinART  float64
	MaxART  float64
	// S3WinsTET/ART count trials where S^3 strictly won the metric.
	S3WinsTET int
	S3WinsART int
}

// JitterStudy runs `trials` perturbed sparse panels. Each arrival time
// is scaled by a uniform factor in [1-spread, 1+spread] drawn from the
// seeded generator, so results are reproducible.
func JitterStudy(p Params, trials int, spread float64, seed int64) ([]JitterSummary, error) {
	if trials <= 0 || spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("experiments: invalid jitter study (trials=%d spread=%v)", trials, spread)
	}
	rng := rand.New(rand.NewSource(seed))
	base := p.SparsePattern()

	type agg struct {
		tets, arts       []float64
		winsTET, winsART int
	}
	// Every trial runs S^3 first, then the schemes measured against it.
	list := schemes("s3", "fifo", "mrs3=mrshare:3:3:4")
	aggs := make([]agg, len(list))

	for trial := 0; trial < trials; trial++ {
		times := make([]vclock.Time, len(base))
		for i, t := range base {
			factor := 1 + spread*(2*rng.Float64()-1)
			times[i] = vclock.Time(float64(t) * factor)
		}
		runs, err := simulateAll(p, wordcountArrivals(times, 1, 1), list)
		if err != nil {
			return nil, fmt.Errorf("jitter trial %d: %w", trial, err)
		}
		s3 := runs[0].Summary
		for i := 1; i < len(runs); i++ {
			row, a := runs[i].Summary, &aggs[i]
			a.tets = append(a.tets, row.TET.Seconds()/s3.TET.Seconds())
			a.arts = append(a.arts, row.ART.Seconds()/s3.ART.Seconds())
			if row.TET > s3.TET {
				a.winsTET++
			}
			if row.ART > s3.ART {
				a.winsART++
			}
		}
	}

	var out []JitterSummary
	for i := 1; i < len(list); i++ {
		a := aggs[i]
		out = append(out, JitterSummary{
			Scheme:  list[i].Name,
			Trials:  trials,
			MeanTET: mean(a.tets), MinTET: slices.Min(a.tets), MaxTET: slices.Max(a.tets),
			MeanART: mean(a.arts), MinART: slices.Min(a.arts), MaxART: slices.Max(a.arts),
			S3WinsTET: a.winsTET, S3WinsART: a.winsART,
		})
	}
	return out, nil
}

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
