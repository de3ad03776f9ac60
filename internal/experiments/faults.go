package experiments

import (
	"fmt"

	"s3sched/internal/faults"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/sim"
	"s3sched/internal/workload"
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

// faultSchemes is the comparison set of the fault study: the full
// MRShare spread adds nothing here, one batching variant does.
func faultSchemes() []SchemeSpec {
	all := PaperSchemes()
	out := make([]SchemeSpec, 0, 3)
	for _, s := range all {
		if s.Name == "s3" || s.Name == "fifo" || s.Name == "mrs1" {
			out = append(out, s)
		}
	}
	return out
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
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	arrivals := make([]runtime.Arrival, len(metas))
	for i := range metas {
		arrivals[i] = runtime.Arrival{Job: metas[i], At: times[i]}
	}

	out := FaultStudyResult{
		Seed:     seed,
		Replicas: replicas,
		Rates:    []float64{0, maxRate / 4, maxRate / 2, maxRate},
	}
	for _, rate := range out.Rates {
		point := FaultPoint{Rate: rate, Schemes: make(map[string]FaultSchemeResult)}
		for _, spec := range faultSchemes() {
			// Fresh environment per run: the store's replica placement
			// is part of the deterministic schedule.
			env, err := NewEnvReplicated(WordcountGB, 64, replicas, p.Model)
			if err != nil {
				return FaultStudyResult{}, err
			}
			sched, err := spec.Make(env.Plan)
			if err != nil {
				return FaultStudyResult{}, fmt.Errorf("experiments: building %s: %w", spec.Name, err)
			}
			exec := sim.NewExecutor(env.Cluster, env.Store, env.Model)
			if rate > 0 {
				fm := sim.FaultModel{
					Seed:          seed,
					BlockFailRate: rate,
					MaxAttempts:   4,
					RetrySec:      5,
					Crashes:       faultCrashes(),
				}
				if err := exec.SetFaultModel(fm); err != nil {
					return FaultStudyResult{}, err
				}
			}
			res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
			if err != nil {
				return FaultStudyResult{}, fmt.Errorf("experiments: running %s at rate %v: %w", spec.Name, rate, err)
			}
			sum, err := res.Metrics.Summarize(spec.Name)
			if err != nil {
				return FaultStudyResult{}, fmt.Errorf("experiments: summarizing %s at rate %v: %w", spec.Name, rate, err)
			}
			point.Schemes[spec.Name] = FaultSchemeResult{
				Summary:   sum,
				Rounds:    res.Rounds,
				Completed: res.Metrics.Jobs() - len(res.Metrics.Failed()) - len(res.Metrics.Incomplete()),
				Failed:    len(res.Metrics.Failed()),
				Faults:    res.Metrics.FaultStats(),
			}
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}
