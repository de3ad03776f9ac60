package experiments

import (
	"fmt"

	"s3sched/internal/core"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
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

// PipelineStudyModes A/B-tests the stage-pipelined runtime against the
// serial round loop: the same S^3 scheduler and cost model, with and
// without reduce-of-round-N overlapping scan-of-round-N+1. The gain
// grows with the reduce share of a round — normal wordcount reduces
// are small (§V Table I: ~1.5 MB of reduce output), the heavy workload
// (200x reduce output, §V-E) gives reduces real weight. It runs the
// study's workloads in the selected mode(s); disabling one leaves its
// columns (and the derived gain and overlap) zero. This backs s3bench's
// -pipeline=on|off|both flag.
func PipelineStudyModes(p Params, serial, pipelined bool) (PipelineResult, error) {
	if !serial && !pipelined {
		return PipelineResult{}, fmt.Errorf("experiments: pipeline study with both modes disabled")
	}
	w, rw := p.HeavyMapW, p.HeavyReduceW
	cases := []pipelineCase{
		{"sparse", 1, 1, p.SparsePattern()},
		{"dense", 1, 1, p.DensePattern()},
		{"heavy-sparse", w, rw, p.SparsePattern()},
		{"heavy-dense", w, rw, p.DensePattern()},
	}
	out := PipelineResult{Workers: runtime.DefaultReduceWorkers}
	for _, c := range cases {
		row, err := runPipelineCase(c, p, serial, pipelined)
		if err != nil {
			return PipelineResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runPipelineCase(c pipelineCase, p Params, serialOn, pipelinedOn bool) (PipelineRow, error) {
	metas := workload.WordCountMetas(NumJobs, "input", c.weight, c.rweight)
	arrivals := make([]runtime.Arrival, len(metas))
	for i := range metas {
		arrivals[i] = runtime.Arrival{Job: metas[i], At: c.times[i]}
	}
	run := func(pipeline bool) (*runtime.Result, error) {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return nil, err
		}
		var sched scheduler.Scheduler = core.New(env.Plan, nil)
		exec := newSimExec(env)
		return runtime.RunTrace(sched, exec, arrivals, runtime.Options{Pipeline: pipeline})
	}
	row := PipelineRow{Workload: c.name}
	if serialOn {
		serial, err := run(false)
		if err != nil {
			return PipelineRow{}, fmt.Errorf("experiments: pipeline %s serial: %w", c.name, err)
		}
		if row.SerialTET, err = serial.Metrics.TET(); err != nil {
			return PipelineRow{}, err
		}
		if row.SerialART, err = serial.Metrics.ART(); err != nil {
			return PipelineRow{}, err
		}
		row.Rounds = serial.Rounds
	}
	if pipelinedOn {
		piped, err := run(true)
		if err != nil {
			return PipelineRow{}, fmt.Errorf("experiments: pipeline %s pipelined: %w", c.name, err)
		}
		if row.PipelinedTET, err = piped.Metrics.TET(); err != nil {
			return PipelineRow{}, err
		}
		if row.PipelinedART, err = piped.Metrics.ART(); err != nil {
			return PipelineRow{}, err
		}
		row.Overlap = piped.Metrics.PipelineOverlap()
		row.Rounds = piped.Rounds
	}
	if serialOn && pipelinedOn {
		row.TETGainPct = 100 * (1 - row.PipelinedTET.Seconds()/row.SerialTET.Seconds())
	}
	return row, nil
}
