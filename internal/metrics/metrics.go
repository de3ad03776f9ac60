// Package metrics computes the paper's two performance metrics
// (§III-B) from the run's job table: total execution time (TET — first
// submission to last completion) and average response time (ART — mean
// per-job submission-to-completion interval), plus a P95 tail. It keeps
// no per-job record of its own: the stamps are runtime.JobStatus's,
// which the admission queue keeps. Beside them it holds the run's fault
// and cache counters and the Prometheus-style registry live runs
// publish.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"s3sched/internal/vclock"
)

// FaultStats aggregates a run's fault-handling counters. All zeros on
// a fault-free run.
type FaultStats struct {
	// Retries counts block attempts re-executed after a failure.
	Retries int
	// FailedAttempts counts block-read attempts that failed.
	FailedAttempts int
	// RequeuedRounds counts lost rounds returned to the scheduler.
	RequeuedRounds int
	// RequeuedSubJobs counts sub-jobs riding those requeued rounds.
	RequeuedSubJobs int
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Retries += other.Retries
	s.FailedAttempts += other.FailedAttempts
	s.RequeuedRounds += other.RequeuedRounds
	s.RequeuedSubJobs += other.RequeuedSubJobs
}

// Job is what the paper's metrics read of one job; runtime.JobStatus,
// the run's one per-job record, is one.
type Job interface {
	// Span returns when the job was admitted and when it completed;
	// done is false while it has not.
	Span() (admitted, completed vclock.Time, done bool)
}

// responseTimes returns each job's admission-to-completion interval, in
// the order given. It fails on no jobs or on one not yet complete.
func responseTimes[J Job](jobs []J) ([]vclock.Duration, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("metrics: no jobs recorded")
	}
	out := make([]vclock.Duration, len(jobs))
	incomplete := 0
	for i, j := range jobs {
		sub, end, done := j.Span()
		if !done {
			incomplete++
		}
		out[i] = end.Sub(sub)
	}
	if incomplete > 0 {
		return nil, fmt.Errorf("metrics: %d of %d job(s) incomplete", incomplete, len(jobs))
	}
	return out, nil
}

// TET returns the total execution time: the interval between the first
// job's admission and the last job's completion. It fails if any job is
// incomplete.
func TET[J Job](jobs []J) (vclock.Duration, error) {
	if _, err := responseTimes(jobs); err != nil {
		return 0, err
	}
	first, _, _ := jobs[0].Span()
	var last vclock.Time
	for _, j := range jobs {
		sub, end, _ := j.Span()
		first, last = min(first, sub), max(last, end)
	}
	return last.Sub(first), nil
}

// ART returns the average response time across jobs, summed in the
// order given. It fails if any job is incomplete.
func ART[J Job](jobs []J) (vclock.Duration, error) {
	rts, err := responseTimes(jobs)
	if err != nil {
		return 0, err
	}
	var total vclock.Duration
	for _, rt := range rts {
		total += rt
	}
	return total / vclock.Duration(len(rts)), nil
}

// PercentileResponse returns the p-th percentile response time
// (0 < p <= 100) using the nearest-rank method.
func PercentileResponse[J Job](jobs []J, p float64) (vclock.Duration, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v outside (0,100]", p)
	}
	rts, err := responseTimes(jobs)
	if err != nil {
		return 0, err
	}
	sort.Slice(rts, func(i, j int) bool { return rts[i] < rts[j] })
	rank := int(math.Ceil(p / 100 * float64(len(rts))))
	if rank < 1 {
		rank = 1
	}
	return rts[rank-1], nil
}

// Summary is the measured outcome of one scheduler run. P95 is the
// per-job response-time percentile (nearest-rank), the tail view a mean
// like ART hides.
type Summary struct {
	TET vclock.Duration
	ART vclock.Duration
	P95 vclock.Duration
}

// Summarize computes a Summary for a completed run's jobs.
func Summarize[J Job](jobs []J) (Summary, error) {
	tet, err := TET(jobs)
	if err != nil {
		return Summary{}, err
	}
	art, err := ART(jobs)
	if err != nil {
		return Summary{}, err
	}
	p95, err := PercentileResponse(jobs, 95)
	if err != nil {
		return Summary{}, err
	}
	return Summary{TET: tet, ART: art, P95: p95}, nil
}
