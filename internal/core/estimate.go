package core

import (
	"fmt"
	"sync"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Estimator learns the cluster's round-duration behaviour online and
// predicts job completion times — the "estimates the completion time"
// part of §IV-D1's periodic slot checking. It fits, by ordinary least
// squares over the observed rounds,
//
//	duration ≈ α + β·batchSize + γ·blocks
//
// which matches the executor cost structure: a fixed per-round part, a
// per-job part (map + dispatch + reduce), and a per-block part (scan +
// task launch). With the fitted model and the JQM's current state, the
// remaining schedule can be rolled forward to a predicted completion
// time per job.
type Estimator struct {
	mu sync.Mutex
	// Normal-equation accumulators for X^T X and X^T y with feature
	// vector (1, batch, blocks).
	n                   float64
	sumB, sumK          float64
	sumBB, sumKK, sumBK float64
	sumY, sumYB, sumYK  float64
	alpha, beta, gamma  float64
	fitted              bool
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// Observe records one completed round.
func (e *Estimator) Observe(batch, blocks int, d vclock.Duration) {
	if batch <= 0 || blocks <= 0 || d < 0 {
		panic(fmt.Sprintf("core: invalid observation batch=%d blocks=%d d=%v", batch, blocks, d))
	}
	b, k, y := float64(batch), float64(blocks), d.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	e.sumB += b
	e.sumK += k
	e.sumBB += b * b
	e.sumKK += k * k
	e.sumBK += b * k
	e.sumY += y
	e.sumYB += y * b
	e.sumYK += y * k
	e.fitted = false
}

// fit solves the 3x3 normal equations by Gaussian elimination. When
// the system is singular (e.g. every observed round had the same batch
// and block count), degenerate coefficients fall back to the sample
// mean as a pure intercept.
func (e *Estimator) fitLocked() {
	if e.fitted {
		return
	}
	// Matrix [n sumB sumK; sumB sumBB sumBK; sumK sumBK sumKK],
	// right-hand side [sumY sumYB sumYK].
	a := [3][4]float64{
		{e.n, e.sumB, e.sumK, e.sumY},
		{e.sumB, e.sumBB, e.sumBK, e.sumYB},
		{e.sumK, e.sumBK, e.sumKK, e.sumYK},
	}
	const eps = 1e-9
	singular := false
	for col := 0; col < 3; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if abs(a[r][col]) > abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if abs(a[col][col]) < eps {
			singular = true
			break
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	if singular || e.n < 3 {
		// Fall back to the mean duration as a constant model.
		e.alpha = 0
		if e.n > 0 {
			e.alpha = e.sumY / e.n
		}
		e.beta, e.gamma = 0, 0
	} else {
		var coef [3]float64
		for i := 0; i < 3; i++ {
			coef[i] = a[i][3] / a[i][i]
		}
		e.alpha, e.beta, e.gamma = coef[0], coef[1], coef[2]
	}
	e.fitted = true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PredictRound estimates the duration of a round with the given batch
// size and block count. It fails with fewer than two observations.
func (e *Estimator) PredictRound(batch, blocks int) (vclock.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n < 2 {
		return 0, fmt.Errorf("core: estimator has %d sample(s); need at least 2", int(e.n))
	}
	e.fitLocked()
	d := e.alpha + e.beta*float64(batch) + e.gamma*float64(blocks)
	if d < 0 {
		d = 0
	}
	return vclock.Duration(d), nil
}

// PredictCompletions rolls the JQM's current schedule forward under
// the fitted model: each future round batches every still-active job,
// jobs retire as their remaining sub-jobs run out, and the returned
// map gives each active job's predicted time-to-completion from now.
// The scheduler must not have a round in flight.
func (e *Estimator) PredictCompletions(s *S3) (map[scheduler.JobID]vclock.Duration, error) {
	if s.inFlight {
		return nil, fmt.Errorf("core: cannot predict with a round in flight")
	}
	type futureJob struct {
		id        scheduler.JobID
		remaining int
	}
	var jobs []futureJob
	for _, js := range s.Active() {
		jobs = append(jobs, futureJob{id: js.Meta.ID, remaining: js.Remaining})
	}
	out := make(map[scheduler.JobID]vclock.Duration, len(jobs))
	var elapsed vclock.Duration
	cursor := s.Cursor()
	for len(jobs) > 0 {
		blocks := len(s.Plan().Blocks(cursor))
		d, err := e.PredictRound(len(jobs), blocks)
		if err != nil {
			return nil, err
		}
		elapsed += d
		var still []futureJob
		for _, j := range jobs {
			j.remaining--
			if j.remaining == 0 {
				out[j.id] = elapsed
				continue
			}
			still = append(still, j)
		}
		jobs = still
		cursor = s.Plan().Next(cursor)
	}
	return out, nil
}
