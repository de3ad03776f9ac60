// Package runtime is the single round-loop engine behind every
// execution path in the repository. It drives a scheduler and an
// executor under one clock, virtual unless Options.Clock is a wall
// clock, through the paper's state machine —
//
//	admit due arrivals → form round → execute → requeue-or-retire →
//	fold stats
//
// — and stamps, on the source's one record of each job, the timings the
// paper's metrics are computed from. Rounds are strictly serial, as in
// the paper's Algorithm 1: the next round forms only once the last has
// been retired, and a job's one engine outcome is done, when its last
// sub-job's round retires. A round that fails with anything but a
// RoundLostError fails the run. Requeue bounds (MaxRequeues) and
// end-of-run stats folding (FaultStatsSource/CacheStatsSource) are
// implemented exactly once, for every executor.
//
// Jobs arrive through one admission queue, LiveSource: it accepts
// thread-safe submissions from other goroutines *while a pass is in
// flight* — the window S^3's sub-job alignment exploits — which makes
// the loop a long-lived admission daemon, and a recorded trace is the
// same queue filled before the run (RunTrace). A job may depend on
// others (a DAG stage, after Fotakis et al.'s multi-round precedence):
// the queue holds it until each producer's reduce output is materialized
// as a file, then releases it into the live circular pass, where it
// shares segment scans like any job; the queue's one record of each job
// decides when a stage is ready and which fail with a producer whose
// output cannot be made.
//
// The package holds the contracts only and imports no data plane: each
// substrate's executor lives beside it (sim.Executor, remote.Master).
package runtime

import (
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Executor runs one round of cluster work and reports how long it took.
type Executor interface {
	ExecRound(r scheduler.Round) (vclock.Duration, error)
}

// ExecutorFunc adapts a function to Executor.
type ExecutorFunc func(r scheduler.Round) (vclock.Duration, error)

// ExecRound calls f.
func (f ExecutorFunc) ExecRound(r scheduler.Round) (vclock.Duration, error) { return f(r) }

// FaultStatsSource is implemented by executors that count fault
// handling (retries, failed attempts); the engine folds the counters
// into the run's metrics at the end.
type FaultStatsSource interface {
	FaultStats() metrics.FaultStats
}

// CacheStatsSource is implemented by executors whose reads go through
// a block cache (real or modeled); the engine folds the hit/miss/
// eviction counters into the run's metrics at the end.
type CacheStatsSource interface {
	CacheStats() dfs.CacheStats
}

// StageTimer is implemented by executors that know how a round's
// duration splits into its scan/map stage and its reduce stage — the
// cost model does, a real master does not. The engine then runs each
// round through ExecStages instead of ExecRound, advances the clock by
// the sum, and draws the scan-stage/reduce-stage spans and the
// s3_round_{scan,reduce}_seconds histograms from the parts.
type StageTimer interface {
	ExecStages(r scheduler.Round) (mapDur, redDur vclock.Duration, err error)
}

// Waker is implemented by time-driven schedulers (e.g. window-based
// batchers) that may have work at a future instant even with no
// arrivals left. The engine advances the clock to the wake time when
// the scheduler is otherwise idle.
type Waker interface {
	// NextWake returns the next time the scheduler should be polled
	// again, or ok=false when it has no timed work.
	NextWake(now vclock.Time) (vclock.Time, bool)
}

// CommitLog receives the engine's durable commit points — the
// write-ahead journal's view of the run loop. The engine calls it
// synchronously from its goroutine at exactly the places the
// scheduler's state is consistent: after a round is retired
// (RoundCommitted, with the scheduler's snapshot) and when a job
// completes (JobDone). Implementations
// that cannot write (disk full) should fail the run via their own
// executor path rather than silently dropping records; these callbacks
// return nothing so the loop's hot path stays infallible.
type CommitLog interface {
	// RoundCommitted fires after settleRound retires round r at
	// time now. snap is the scheduler's post-round state, nil
	// when the scheduler is not Snapshottable; a snapshot that fails
	// fails the run instead. requeues is the engine's
	// consecutive-requeue count (0 after a successful round).
	RoundCommitted(r scheduler.Round, now vclock.Time, snap *scheduler.Snapshot, requeues int)
	// JobDone fires when id completes.
	JobDone(id scheduler.JobID, now vclock.Time)
}

// DefaultMaxRequeues bounds consecutive requeues of one round before
// the engine gives up (a fault schedule that never lets the round
// complete would otherwise loop forever).
const DefaultMaxRequeues = 32

// Arrival is one job submission event.
type Arrival struct {
	Job scheduler.JobMeta
	At  vclock.Time
}

// Result is the outcome of one engine run.
type Result struct {
	// Jobs are the records of the jobs the run admitted or resumed, in
	// that order, as the source held them at exit: what metrics.TET, ART
	// and Summarize read.
	Jobs   []JobStatus
	Faults metrics.FaultStats
	Cache  dfs.CacheStats
	Rounds int
	// End is the run's time when the last job completed.
	End vclock.Time
	// Stopped reports that the run exited early at a round boundary
	// because Options.Stop fired — a graceful shutdown, not an error.
	// Jobs may remain pending; the caller is expected to checkpoint.
	Stopped bool
	// Requeues is the consecutive-requeue count at exit (nonzero only
	// when a stop landed mid-requeue-storm); a checkpoint persists it
	// so the restarted engine keeps the same requeue budget.
	Requeues int
}

// Hooks observe the run loop. Both callbacks are invoked from the
// engine's goroutine, so they may read scheduler state safely but must
// not call back into it.
type Hooks struct {
	// OnRoundStart fires after a round is formed, before it executes.
	OnRoundStart func(r scheduler.Round, now vclock.Time)
	// OnRoundDone fires after the round is retired, with the jobs that
	// completed in it.
	OnRoundDone func(r scheduler.Round, now vclock.Time, completed []scheduler.JobID)
}

// Options configures a run.
type Options struct {
	// MaxRequeues bounds consecutive requeues of one lost round before
	// the engine gives up (default DefaultMaxRequeues).
	MaxRequeues int
	Hooks       Hooks
	// Spans, when set, receives the run's hierarchical span tree
	// (run → round → scan/reduce stage → per-job subjob) in vclock
	// time. Export it with trace.WriteChromeTrace.
	Spans *trace.Log
	// Metrics, when set, receives live counter/gauge/histogram updates
	// as the run progresses (see metrics.NewRunMetrics).
	Metrics *metrics.RunMetrics
	// Commits, when set, receives the run's durable commit points (see
	// CommitLog) — how the write-ahead journal observes the loop.
	Commits CommitLog
	// Stop, when set, requests a graceful early exit: the engine
	// checks it at each round boundary and, once closed, finishes the
	// in-flight round and returns Result.Stopped=true with pending
	// jobs still in the scheduler. Close the arrival source alongside
	// so an idle-parked engine wakes up.
	Stop <-chan struct{}
	// InitialRequeues seeds the consecutive-requeue counter — the
	// value a checkpoint carried, so a crash loop cannot reset its own
	// budget by restarting.
	InitialRequeues int
	// Clock is the run's time, advanced by each round's duration and to
	// each next arrival; nil is a fresh vclock.Virtual. On a vclock.Wall
	// a live source must stamp from the same clock (NewLiveSourceOn).
	Clock vclock.Clock
}

// Run drives arrivals from src through the scheduler, executing rounds
// until every admitted job completes and the source reports no more
// will ever come.
func Run(sched scheduler.Scheduler, exec Executor, src *LiveSource, opts Options) (*Result, error) {
	e := newEngine(sched, exec, src, opts)
	return e.run()
}

// RunTrace is Run over a pre-recorded arrival slice: a LiveSource filled
// with it, closed, and run on opts.Clock. Arrivals may be given in any
// order; they are admitted by time, ties by job id, each stamped with
// its recorded time.
func RunTrace(sched scheduler.Scheduler, exec Executor, arrivals []Arrival, opts Options) (*Result, error) {
	src := NewLiveSource()
	for _, a := range arrivals {
		if _, err := src.SubmitStage(a, nil, nil); err != nil {
			return nil, err
		}
	}
	src.Close()
	if opts.Clock == nil {
		opts.Clock = vclock.NewVirtual()
	}
	// Filled without a clock, each job kept its recorded time; with one,
	// Pop keeps the stamps.
	src.clock = opts.Clock
	return Run(sched, exec, src, opts)
}
