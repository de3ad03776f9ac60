package experiments

import (
	"fmt"
	"math"

	"s3sched/internal/core"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// EstimatorStudy validates §IV-D1's completion-time estimation: an
// online Estimator observes every completed round of a sparse-pattern
// S^3 run; at a chosen observation point it predicts the completion
// time of every active job, and after the run the predictions are
// scored against the actual completions.

// EstimatorResult reports prediction accuracy.
type EstimatorResult struct {
	ObservedRounds int
	PredictedJobs  int
	// MAPE is the mean absolute percentage error of the predicted
	// completion times (relative to the remaining time to completion).
	MAPE float64
	// MaxErr is the worst absolute percentage error.
	MaxErr float64
}

// EstimatorStudy runs the study: predictions are made right after
// round observeAt completes.
func EstimatorStudy(p Params, observeAt int) (EstimatorResult, error) {
	if observeAt < 3 {
		return EstimatorResult{}, fmt.Errorf("experiments: need at least 3 observed rounds, got %d", observeAt)
	}
	wf, err := Fig4Workload("a", p)
	if err != nil {
		return EstimatorResult{}, err
	}
	env, err := newCellEnv(wf)
	if err != nil {
		return EstimatorResult{}, err
	}

	s3 := core.New(env.plans[0], nil)
	est := core.NewEstimator()
	exec := sim.NewExecutor(env.cluster, env.store, env.model)

	var (
		roundStart vclock.Time
		rounds     int
		predicted  map[scheduler.JobID]vclock.Time // absolute predicted completion
		predErr    error
	)
	hooks := runtime.Hooks{
		OnRoundStart: func(r scheduler.Round, now vclock.Time) { roundStart = now },
		OnRoundDone: func(r scheduler.Round, now vclock.Time, completed []scheduler.JobID) {
			rounds++
			est.Observe(len(r.Jobs), len(r.Blocks), now.Sub(roundStart))
			if rounds == observeAt && predErr == nil && predicted == nil {
				deltas, err := est.PredictCompletions(s3)
				if err != nil {
					predErr = err
					return
				}
				predicted = make(map[scheduler.JobID]vclock.Time, len(deltas))
				for id, d := range deltas {
					predicted[id] = now.Add(d)
				}
			}
		},
	}
	res, err := runtime.RunTrace(s3, exec, wf.Entries(), runtime.Options{Hooks: hooks})
	if err != nil {
		return EstimatorResult{}, err
	}
	if predErr != nil {
		return EstimatorResult{}, predErr
	}
	if predicted == nil {
		return EstimatorResult{}, fmt.Errorf("experiments: run finished before round %d; nothing predicted", observeAt)
	}

	actual := make(map[scheduler.JobID]vclock.Time, len(res.Jobs))
	for _, j := range res.Jobs {
		actual[j.ID] = j.DoneAt
	}

	out := EstimatorResult{ObservedRounds: observeAt, PredictedJobs: len(predicted)}
	var sum float64
	for id, pred := range predicted {
		act, ok := actual[id]
		if !ok {
			return EstimatorResult{}, fmt.Errorf("experiments: predicted job %d never completed", id)
		}
		// Score relative to the job's total lifetime so early
		// predictions of long jobs are judged fairly.
		denom := float64(act)
		if denom <= 0 {
			denom = 1
		}
		e := math.Abs(float64(pred)-float64(act)) / denom
		sum += e
		if e > out.MaxErr {
			out.MaxErr = e
		}
	}
	out.MAPE = sum / float64(len(predicted))
	return out, nil
}
