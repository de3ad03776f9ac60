package experiments

import (
	"fmt"

	"s3sched/internal/runtime"
	"s3sched/internal/vclock"
)

// PipelineRow is one workload's serial-vs-pipelined A/B comparison.
type PipelineRow struct {
	Workload     string
	SerialTET    vclock.Duration
	PipelinedTET vclock.Duration
	SerialART    vclock.Duration
	PipelinedART vclock.Duration
	// Overlap is the virtual time of reduce work hidden under later
	// rounds' scans in the pipelined run.
	Overlap vclock.Duration
	// TETGainPct is the TET reduction in percent (positive = pipelining
	// faster).
	TETGainPct float64
	Rounds     int // pipelined round count
}

// PipelineResult is the stage-pipelining study across workloads.
type PipelineResult struct {
	Workers int
	Rows    []PipelineRow
}

func (r PipelineResult) String() string {
	s := fmt.Sprintf("%-14s %12s %12s %8s %12s %10s\n",
		"workload", "serial TET", "piped TET", "gain", "overlap", "rounds")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%-14s %12s %12s %7.1f%% %12s %10d\n",
			row.Workload, row.SerialTET, row.PipelinedTET, row.TETGainPct, row.Overlap, row.Rounds)
	}
	return s
}

// pipelineCase is one PipelineStudy workload configuration.
type pipelineCase struct {
	name    string
	weight  float64
	rweight float64
	times   []vclock.Time
}

// PipelineStudy A/B-tests the stage-pipelined runtime against the
// serial round loop: the same S^3 scheduler and cost model, with and
// without reduce-of-round-N overlapping scan-of-round-N+1. The gain
// grows with the reduce share of a round — normal wordcount reduces
// are small (§V Table I: ~1.5 MB of reduce output), the heavy workload
// (200x reduce output, §V-E) gives reduces real weight.
func PipelineStudy(p Params) (PipelineResult, error) {
	w, rw := p.HeavyMapW, p.HeavyReduceW
	cases := []pipelineCase{
		{"sparse", 1, 1, p.SparsePattern()},
		{"dense", 1, 1, p.DensePattern()},
		{"heavy-sparse", w, rw, p.SparsePattern()},
		{"heavy-dense", w, rw, p.DensePattern()},
	}
	out := PipelineResult{Workers: runtime.DefaultReduceWorkers}
	for _, c := range cases {
		row, err := runPipelineCase(c, p)
		if err != nil {
			return PipelineResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runPipelineCase(c pipelineCase, p Params) (PipelineRow, error) {
	arrivals := wordcountArrivals(c.times, c.weight, c.rweight)
	run := func(pipeline bool) (SimRun, error) {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return SimRun{}, err
		}
		return Simulate(env, schemes("s3")[0], nil, arrivals, runtime.Options{Pipeline: pipeline}, nil)
	}
	serial, err := run(false)
	if err != nil {
		return PipelineRow{}, fmt.Errorf("experiments: pipeline %s serial: %w", c.name, err)
	}
	piped, err := run(true)
	if err != nil {
		return PipelineRow{}, fmt.Errorf("experiments: pipeline %s pipelined: %w", c.name, err)
	}
	return PipelineRow{
		Workload:     c.name,
		SerialTET:    serial.Summary.TET,
		SerialART:    serial.Summary.ART,
		PipelinedTET: piped.Summary.TET,
		PipelinedART: piped.Summary.ART,
		Overlap:      piped.Result.Metrics.PipelineOverlap(),
		TETGainPct:   100 * (1 - piped.Summary.TET.Seconds()/serial.Summary.TET.Seconds()),
		Rounds:       piped.Result.Rounds,
	}, nil
}
