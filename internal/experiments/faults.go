package experiments

import (
	"fmt"

	"s3sched/internal/faults"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
)

// FaultSchemeResult is one scheme's outcome at one fault rate.
type FaultSchemeResult struct {
	Summary   metrics.Summary
	Rounds    int
	Completed int
	Failed    int
	Faults    metrics.FaultStats
}

// FaultPoint is one fault rate evaluated across the schemes.
type FaultPoint struct {
	Rate    float64
	Schemes map[string]FaultSchemeResult
}

// FaultStudyResult is the degradation study: TET/ART of S^3 vs FIFO vs
// MRShare as the transient block-failure rate rises, with two node
// crash windows overlapped on every non-zero rate.
type FaultStudyResult struct {
	Seed     int64
	Replicas int
	Rates    []float64
	Points   []FaultPoint
}

// faultCrashes is the fixed crash schedule overlaid on every non-zero
// fault rate: one node fails mid-run and another later, each
// recovering after a while. With replicas >= 2 every block keeps a
// surviving holder, so the schedulers must finish all jobs — paying
// shrunken waves and lost locality while a node is out.
func faultCrashes() []faults.Crash {
	return []faults.Crash{
		{Node: 0, From: 300, To: 450},
		{Node: 7, From: 700, To: 800},
	}
}

// FaultStudy measures fault-tolerance degradation at rates
// {0, maxRate/4, maxRate/2, maxRate} under seed. The environment is the
// paper-scale normal workload (160 GB, 64 MB blocks, sparse pattern)
// with 2-way replication. The schedule is deterministic: equal
// (maxRate, seed) reproduce identical fault histories and results.
func FaultStudy(maxRate float64, seed int64) (FaultStudyResult, error) {
	if maxRate < 0 || maxRate >= 1 {
		return FaultStudyResult{}, fmt.Errorf("experiments: fault rate %v outside [0,1)", maxRate)
	}
	const replicas = 2
	p := DefaultParams()
	arrivals := wordcountArrivals(p.SparsePattern(), 1, 1)

	out := FaultStudyResult{
		Seed:     seed,
		Replicas: replicas,
		Rates:    []float64{0, maxRate / 4, maxRate / 2, maxRate},
	}
	for _, rate := range out.Rates {
		point := FaultPoint{Rate: rate, Schemes: make(map[string]FaultSchemeResult)}
		// The full MRShare spread adds nothing here, one batching
		// variant does.
		for _, spec := range schemes("s3", "fifo", "mrs1=mrshare:10") {
			// Fresh environment per run: the store's replica placement
			// is part of the deterministic schedule.
			env, err := NewEnvFile("input", WordcountGB, 64, replicas, p.Model)
			if err != nil {
				return FaultStudyResult{}, err
			}
			run, err := Simulate(env, spec, nil, arrivals, runtime.Options{}, func(_ scheduler.Scheduler, exec *sim.Executor) error {
				if rate == 0 {
					return nil
				}
				return exec.SetFaultModel(sim.FaultModel{
					Seed:          seed,
					BlockFailRate: rate,
					MaxAttempts:   4,
					RetrySec:      5,
					Crashes:       faultCrashes(),
				})
			})
			if err != nil {
				return FaultStudyResult{}, fmt.Errorf("rate %v: %w", rate, err)
			}
			m := run.Result.Metrics
			point.Schemes[spec.Name] = FaultSchemeResult{
				Summary:   run.Summary,
				Rounds:    run.Result.Rounds,
				Completed: m.Jobs() - len(m.Failed()) - len(m.Incomplete()),
				Failed:    len(m.Failed()),
				Faults:    m.FaultStats(),
			}
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}
