// Package metrics computes the paper's two performance metrics
// (§III-B): total execution time (TET — first submission to last
// completion) and average response time (ART — mean per-job
// submission-to-completion interval), plus the normalized report rows
// Figure 4 presents.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Collector accumulates per-job submission, first-scheduling and
// completion times. The optional start times let ART be decomposed the
// way §III-B describes: response = waiting (submission → first round
// that includes the job) + processing (first round → completion).
type Collector struct {
	submitted map[scheduler.JobID]vclock.Time
	started   map[scheduler.JobID]vclock.Time
	completed map[scheduler.JobID]vclock.Time
	order     []scheduler.JobID // submission order
	faults    FaultStats
	cache     CacheStats
}

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

// AddFaultStats accumulates fault counters into the collector.
func (c *Collector) AddFaultStats(fs FaultStats) { c.faults.Add(fs) }

// FaultStats returns the run's accumulated fault counters.
func (c *Collector) FaultStats() FaultStats { return c.faults }

// CacheStats aggregates a run's block-cache counters. All zeros when
// caching is off.
type CacheStats struct {
	// Hits counts block reads served from cache instead of disk.
	Hits int64
	// Misses counts block reads that went to disk.
	Misses int64
	// Evictions counts blocks discarded to fit the cache byte budget.
	Evictions int64
	// Prefetches counts speculative readahead loads issued.
	Prefetches int64
	// PrefetchFailed counts prefetch loads that failed (block dropped).
	PrefetchFailed int64
	// Bytes is the cached byte footprint at the end of the run.
	Bytes int64
	// PinnedBytes is the pin-protected footprint at the end of the run.
	PinnedBytes int64
}

// HitRatio returns hits / (hits + misses), or 0 when no reads occurred.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add accumulates other into s. Bytes and PinnedBytes are
// point-in-time footprints, so footprints sum across disjoint caches
// (one per worker).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Prefetches += other.Prefetches
	s.PrefetchFailed += other.PrefetchFailed
	s.Bytes += other.Bytes
	s.PinnedBytes += other.PinnedBytes
}

// AddCacheStats accumulates block-cache counters into the collector.
func (c *Collector) AddCacheStats(cs CacheStats) { c.cache.Add(cs) }

// CacheStats returns the run's accumulated block-cache counters.
func (c *Collector) CacheStats() CacheStats { return c.cache }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		submitted: make(map[scheduler.JobID]vclock.Time),
		started:   make(map[scheduler.JobID]vclock.Time),
		completed: make(map[scheduler.JobID]vclock.Time),
	}
}

// Submit records job id arriving at time t. Resubmission panics: it
// would silently corrupt ART.
func (c *Collector) Submit(id scheduler.JobID, t vclock.Time) {
	if _, dup := c.submitted[id]; dup {
		panic(fmt.Sprintf("metrics: job %d submitted twice", id))
	}
	c.submitted[id] = t
	c.order = append(c.order, id)
}

// Start records the first time job id was included in a launched
// round. Only the first call per job takes effect, so callers may
// report every round's batch without bookkeeping. It reports whether
// this call was the first — the moment the job's waiting interval
// became known — so telemetry can observe it exactly once.
func (c *Collector) Start(id scheduler.JobID, t vclock.Time) bool {
	sub, ok := c.submitted[id]
	if !ok {
		panic(fmt.Sprintf("metrics: job %d started but never submitted", id))
	}
	if t < sub {
		panic(fmt.Sprintf("metrics: job %d started at %v before submission at %v", id, t, sub))
	}
	if _, dup := c.started[id]; dup {
		return false
	}
	c.started[id] = t
	return true
}

// Complete records job id finishing at time t. Completing an
// unsubmitted or already-completed job panics.
func (c *Collector) Complete(id scheduler.JobID, t vclock.Time) {
	sub, ok := c.submitted[id]
	if !ok {
		panic(fmt.Sprintf("metrics: job %d completed but never submitted", id))
	}
	if _, dup := c.completed[id]; dup {
		panic(fmt.Sprintf("metrics: job %d completed twice", id))
	}
	if t < sub {
		panic(fmt.Sprintf("metrics: job %d completed at %v before submission at %v", id, t, sub))
	}
	c.completed[id] = t
}

// Jobs returns how many jobs were submitted.
func (c *Collector) Jobs() int { return len(c.submitted) }

// Incomplete returns the submitted jobs that have not completed, in
// submission order.
func (c *Collector) Incomplete() []scheduler.JobID {
	var out []scheduler.JobID
	for _, id := range c.order {
		if _, done := c.completed[id]; !done {
			out = append(out, id)
		}
	}
	return out
}

// ResponseTime returns a job's submission-to-completion interval.
func (c *Collector) ResponseTime(id scheduler.JobID) (vclock.Duration, error) {
	sub, ok := c.submitted[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d was never submitted", id)
	}
	done, ok := c.completed[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d has not completed", id)
	}
	return done.Sub(sub), nil
}

// WaitingTime returns the interval from a job's submission to the
// launch of the first round that included it (§III-B's waiting
// component). It fails when no start was recorded.
func (c *Collector) WaitingTime(id scheduler.JobID) (vclock.Duration, error) {
	sub, ok := c.submitted[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d was never submitted", id)
	}
	start, ok := c.started[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d has no recorded start", id)
	}
	return start.Sub(sub), nil
}

// ProcessingTime returns the interval from a job's first scheduled
// round to its completion (§III-B's processing component).
func (c *Collector) ProcessingTime(id scheduler.JobID) (vclock.Duration, error) {
	start, ok := c.started[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d has no recorded start", id)
	}
	done, ok := c.completed[id]
	if !ok {
		return 0, fmt.Errorf("metrics: job %d has not completed", id)
	}
	return done.Sub(start), nil
}

// TET returns the total execution time: the interval between the first
// job's submission and the last job's completion. It fails if any job
// is incomplete.
func (c *Collector) TET() (vclock.Duration, error) {
	if len(c.submitted) == 0 {
		return 0, fmt.Errorf("metrics: no jobs recorded")
	}
	if inc := c.Incomplete(); len(inc) > 0 {
		return 0, fmt.Errorf("metrics: %d job(s) incomplete: %v", len(inc), inc)
	}
	var first vclock.Time
	var last vclock.Time
	firstSet := false
	for _, t := range c.submitted {
		if !firstSet || t < first {
			first = t
			firstSet = true
		}
	}
	for _, t := range c.completed {
		if t > last {
			last = t
		}
	}
	return last.Sub(first), nil
}

// ART returns the average response time across all jobs. It fails if
// any job is incomplete.
func (c *Collector) ART() (vclock.Duration, error) {
	if len(c.submitted) == 0 {
		return 0, fmt.Errorf("metrics: no jobs recorded")
	}
	if inc := c.Incomplete(); len(inc) > 0 {
		return 0, fmt.Errorf("metrics: %d job(s) incomplete: %v", len(inc), inc)
	}
	var total vclock.Duration
	for _, id := range c.order {
		rt, err := c.ResponseTime(id)
		if err != nil {
			return 0, err
		}
		total += rt
	}
	return total / vclock.Duration(len(c.order)), nil
}

// ResponseTimes returns every job's response time in submission order.
// It fails if any job is incomplete.
func (c *Collector) ResponseTimes() ([]vclock.Duration, error) {
	if len(c.order) == 0 {
		return nil, fmt.Errorf("metrics: no jobs recorded")
	}
	out := make([]vclock.Duration, 0, len(c.order))
	for _, id := range c.order {
		rt, err := c.ResponseTime(id)
		if err != nil {
			return nil, err
		}
		out = append(out, rt)
	}
	return out, nil
}

// PercentileResponse returns the p-th percentile response time
// (0 < p <= 100) using the nearest-rank method.
func (c *Collector) PercentileResponse(p float64) (vclock.Duration, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v outside (0,100]", p)
	}
	rts, err := c.ResponseTimes()
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
	Scheme string
	TET    vclock.Duration
	ART    vclock.Duration
	P95    vclock.Duration
}

// Summarize computes a Summary for a completed run.
func (c *Collector) Summarize(scheme string) (Summary, error) {
	tet, err := c.TET()
	if err != nil {
		return Summary{}, err
	}
	art, err := c.ART()
	if err != nil {
		return Summary{}, err
	}
	p95, err := c.PercentileResponse(95)
	if err != nil {
		return Summary{}, err
	}
	return Summary{Scheme: scheme, TET: tet, ART: art, P95: p95}, nil
}
