package experiments

import (
	"fmt"

	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Load-sweep study under Poisson arrivals: the paper's patterns are
// hand-built; real clusters see random independent submissions. This
// study sweeps the offered load ρ = jobTime / meanInterarrival and
// reports ART for S^3 and FIFO at each point — the queueing view of
// the shared-scan advantage. FIFO is an M/D/1-like queue whose ART
// blows up as ρ → 1; S^3 absorbs load into bigger shared batches, so
// its ART stays near one job time well past FIFO's saturation point.

// PoissonPoint is one load level's outcome.
type PoissonPoint struct {
	Rho      float64 // offered load: jobTime / mean gap
	MeanGap  vclock.Duration
	S3ART    vclock.Duration
	FIFOART  vclock.Duration
	S3TET    vclock.Duration
	FIFOTET  vclock.Duration
	ARTRatio float64 // FIFO / S3
}

// PoissonStudy sweeps the given load factors with jobs jobs per trial.
func PoissonStudy(p Params, rhos []float64, jobs int, seed int64) ([]PoissonPoint, error) {
	if len(rhos) == 0 || jobs <= 0 {
		return nil, fmt.Errorf("experiments: PoissonStudy needs load points and jobs")
	}
	wf, err := Fig4Workload("a", p)
	if err != nil {
		return nil, err
	}
	// Single-job service time under the calibrated model (FIFO runs
	// the job alone).
	jobTime, err := singleJobTime(wf)
	if err != nil {
		return nil, err
	}

	var out []PoissonPoint
	for _, rho := range rhos {
		if rho <= 0 {
			return nil, fmt.Errorf("experiments: load factor %v must be positive", rho)
		}
		meanGap := vclock.Duration(jobTime.Seconds() / rho)
		times := workload.PoissonPattern(jobs, meanGap, seed)
		cells, err := simCells(arrivingAt(wf, times), "s3", "fifo")
		if err != nil {
			return nil, fmt.Errorf("rho=%v: %w", rho, err)
		}
		s3, fifo := cells[0], cells[1]
		point := PoissonPoint{
			Rho: rho, MeanGap: meanGap,
			S3ART: vclock.Duration(s3.ART), S3TET: vclock.Duration(s3.TET),
			FIFOART: vclock.Duration(fifo.ART), FIFOTET: vclock.Duration(fifo.TET),
		}
		point.ARTRatio = point.FIFOART.Seconds() / point.S3ART.Seconds()
		out = append(out, point)
	}
	return out, nil
}

// singleJobTime measures wf's first job running alone.
func singleJobTime(wf *workload.File) (vclock.Duration, error) {
	cells, err := simCells(arrivingAt(wf, []vclock.Time{0}), "s3")
	if err != nil {
		return 0, err
	}
	return vclock.Duration(cells[0].TET), nil
}
