package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"

	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Executor runs scheduler rounds on the in-process engine: every block
// in a round is physically scanned once and fed to every job in the
// batch, map output accumulates in each job's shuffle space across its
// rounds, and a job's one reduce phase runs when its last round
// completes. Round duration is the measured wall time, scaled by
// TimeScale so scaled-down datasets can stand in for paper-sized ones
// without distorting the scheduler's relative timings.
//
// It satisfies the round loop's executor contracts (internal/runtime:
// Executor, StageExecutor, FailureReporter, FaultStatsSource,
// CacheStatsSource) without importing them.
type Executor struct {
	engine *Engine
	specs  map[scheduler.JobID]JobSpec
	// timeScale converts measured wall seconds into virtual seconds
	// (default 1).
	timeScale float64
	// compact, when non-nil, folds each job's accumulated intermediate
	// records through this combiner after every round — the §V-G
	// output-collection optimization for aggregation queries.
	compact Reducer

	clock *vclock.Wall

	// mu guards the job-state maps below. Under staged execution a
	// round's reduce stage commits from a worker goroutine while the
	// round loop's goroutine starts the next round's map stage.
	mu      sync.Mutex
	running map[scheduler.JobID]*Running
	results map[scheduler.JobID]*Result

	// failMu guards per-job failure isolation state. A job whose own
	// map/reduce code errors is recorded here and excluded from every
	// later round, instead of aborting the batch it shared a scan with.
	failMu   sync.Mutex
	dead     map[scheduler.JobID]bool
	failures []scheduler.JobFailure
	faults   metrics.FaultStats
}

// NewExecutor builds an executor over the engine. specs maps every job
// id the schedulers will see to its executable definition.
func NewExecutor(engine *Engine, specs map[scheduler.JobID]JobSpec) *Executor {
	return &Executor{
		engine:    engine,
		specs:     specs,
		timeScale: 1,
		clock:     vclock.NewWall(),
		running:   make(map[scheduler.JobID]*Running),
		results:   make(map[scheduler.JobID]*Result),
		dead:      make(map[scheduler.JobID]bool),
	}
}

// recordFailure marks a job dead and queues a failure report for the
// round loop. Only the first failure per job is reported. Safe from
// reduce worker goroutines.
func (e *Executor) recordFailure(id scheduler.JobID, err error) {
	e.failMu.Lock()
	if !e.dead[id] {
		e.dead[id] = true
		e.failures = append(e.failures, scheduler.JobFailure{ID: id, Err: err})
	}
	e.failMu.Unlock()
	e.mu.Lock()
	delete(e.running, id)
	e.mu.Unlock()
}

// isDead reports whether the job has failed.
func (e *Executor) isDead(id scheduler.JobID) bool {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.dead[id]
}

// TakeJobFailures returns and clears the per-job failures recorded
// since the previous call.
func (e *Executor) TakeJobFailures() []scheduler.JobFailure {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	out := e.failures
	e.failures = nil
	return out
}

// FaultStats returns the cumulative retry / failed-attempt / blacklist
// counts of the rounds run so far.
func (e *Executor) FaultStats() metrics.FaultStats {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.faults
}

// CacheStats returns the counters of the block cache installed on the
// engine's store (all zeros with caching off).
func (e *Executor) CacheStats() metrics.CacheStats {
	cs := e.engine.Cluster().Store().CacheStats()
	return metrics.CacheStats{
		Hits:           cs.Hits,
		Misses:         cs.Misses,
		Evictions:      cs.Evictions,
		Prefetches:     cs.Prefetches,
		PrefetchFailed: cs.PrefetchFailed,
		Bytes:          cs.Bytes,
		PinnedBytes:    cs.PinnedBytes,
	}
}

// SetTimeScale sets the virtual-seconds-per-wall-second factor.
func (e *Executor) SetTimeScale(scale float64) {
	if scale <= 0 {
		panic(fmt.Sprintf("mapreduce: time scale must be positive, got %v", scale))
	}
	e.timeScale = scale
}

// EnablePartialAggregation folds every job's intermediate records
// through combiner after each round (§V-G): partial aggregates shrink
// the state carried between sub-jobs and let the final aggregation
// start from near-finished results.
func (e *Executor) EnablePartialAggregation(combiner Reducer) {
	e.compact = combiner
}

// Result returns a completed job's output. Safe to call while a run is
// in flight (reduce stages commit from worker goroutines).
func (e *Executor) Result(id scheduler.JobID) (*Result, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, ok := e.results[id]
	return res, ok
}

// Results returns a snapshot of the completed jobs' outputs keyed by
// job id.
func (e *Executor) Results() map[scheduler.JobID]*Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.results)
}

// since is the scaled virtual time elapsed on the wall clock since start.
func (e *Executor) since(start vclock.Time) vclock.Duration {
	return vclock.Duration(e.clock.Now().Sub(start).Seconds() * e.timeScale)
}

// ExecRound runs the map stage followed immediately by its own reduce
// stage, which is exactly the serial semantics.
func (e *Executor) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, stage, err := e.ExecMapStage(r)
	if err != nil {
		return 0, err
	}
	redDur, err := stage()
	if err != nil {
		return 0, err
	}
	return mapDur + redDur, nil
}

// finishCommit is a completing job's sealed shuffle snapshot.
type finishCommit struct {
	id     scheduler.JobID
	run    *Running
	sealed [][]KV
}

// ExecMapStage physically scans the round's blocks into every batched
// job, then performs the shuffle-commit: each completing job's shuffle
// space is sealed, so the returned reduce stage owns an immutable
// snapshot while later rounds' map output for other jobs accumulates
// separately. Results are keyed by job id, so they are identical to
// serial execution no matter how rounds' reduce stages interleave.
func (e *Executor) ExecMapStage(r scheduler.Round) (vclock.Duration, func() (vclock.Duration, error), error) {
	start := e.clock.Now()
	ids := make([]scheduler.JobID, 0, len(r.Jobs))
	jobs := make([]*Running, 0, len(r.Jobs))
	e.mu.Lock()
	for _, meta := range r.Jobs {
		if e.isDead(meta.ID) {
			// The job failed in an earlier round (or stage); its abort
			// may not have reached the scheduler yet. Skip it.
			continue
		}
		run, ok := e.running[meta.ID]
		if !ok {
			spec, have := e.specs[meta.ID]
			if !have {
				e.mu.Unlock()
				return 0, nil, fmt.Errorf("mapreduce: no JobSpec registered for job %d", meta.ID)
			}
			var err error
			run, err = NewRunning(spec)
			if err != nil {
				e.mu.Unlock()
				return 0, nil, err
			}
			e.running[meta.ID] = run
		}
		ids = append(ids, meta.ID)
		jobs = append(jobs, run)
	}
	e.mu.Unlock()
	stats, jobErrs, roundErr := e.engine.MapRoundCtx(context.Background(), r.Blocks, jobs)
	e.failMu.Lock()
	e.faults.Retries += stats.Retries
	e.faults.FailedAttempts += stats.FailedAttempts
	e.faults.BlacklistedNodes += stats.Blacklisted
	e.failMu.Unlock()
	if roundErr != nil {
		var lost *BlockLostError
		if errors.As(roundErr, &lost) {
			// Every replica of a block was exhausted: the scan — not any
			// job's code — failed, so the whole round is lost and the
			// scheduler may requeue it.
			return 0, nil, &scheduler.RoundLostError{Round: r, Elapsed: e.since(start), Err: roundErr}
		}
		return 0, nil, roundErr
	}
	// Per-job map errors kill only their own job (fault isolation); the
	// co-batched jobs' shared scan already committed their outputs.
	for i, err := range jobErrs {
		if err != nil {
			e.recordFailure(ids[i], err)
		}
	}
	if e.compact != nil {
		for i, run := range jobs {
			if jobErrs[i] != nil {
				continue
			}
			if err := run.Compact(e.compact); err != nil {
				e.recordFailure(ids[i], fmt.Errorf("mapreduce: compacting job %d: %w", ids[i], err))
			}
		}
	}
	fins := make([]finishCommit, 0, len(r.Completes))
	e.mu.Lock()
	for _, id := range r.Completes {
		if e.isDead(id) {
			continue // failed jobs never finish
		}
		run, ok := e.running[id]
		if !ok {
			e.mu.Unlock()
			return 0, nil, fmt.Errorf("mapreduce: round completes unknown job %d", id)
		}
		// The job had its last scan; later rounds never reference it.
		delete(e.running, id)
		fins = append(fins, finishCommit{id: id, run: run})
	}
	e.mu.Unlock()
	for i := range fins {
		fins[i].sealed = fins[i].run.Seal()
	}
	return e.since(start), e.reduceStage(fins), nil
}

// reduceStage builds the round's reduce closure: the final reduce of
// every job the round completes, off its sealed snapshot.
//
// A reduce error is a job-code error (the engine's own failures
// surfaced in the map stage), so it kills only its job: the failure is
// recorded for the round loop and the round's other jobs commit
// normally.
func (e *Executor) reduceStage(fins []finishCommit) func() (vclock.Duration, error) {
	return func() (vclock.Duration, error) {
		start := e.clock.Now()
		for _, f := range fins {
			if e.isDead(f.id) {
				continue
			}
			res, err := e.engine.FinishDrained(f.run, f.sealed)
			if err != nil {
				e.recordFailure(f.id, err)
				continue
			}
			e.mu.Lock()
			e.results[f.id] = res
			e.mu.Unlock()
		}
		return e.since(start), nil
	}
}
