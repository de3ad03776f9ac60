package runtime

import (
	"errors"
	"fmt"
	"slices"

	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// engine is one run of the round loop.
type engine struct {
	sched       scheduler.Scheduler
	exec        Executor
	src         *LiveSource
	hooks       Hooks
	maxRequeues int

	clock vclock.Clock
	tele  *telemetry
	res   *Result
	// requeues counts consecutive requeues of the current round.
	requeues int
	// commits is the write-ahead commit sink, nil when not journaling.
	commits CommitLog
	// stop requests a graceful exit at the next round boundary.
	stop <-chan struct{}
}

func newEngine(sched scheduler.Scheduler, exec Executor, src *LiveSource, opts Options) *engine {
	maxRequeues := opts.MaxRequeues
	if maxRequeues <= 0 {
		maxRequeues = DefaultMaxRequeues
	}
	clock := opts.Clock
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	e := &engine{
		sched:       sched,
		exec:        exec,
		src:         src,
		hooks:       opts.Hooks,
		maxRequeues: maxRequeues,
		clock:       clock,
		tele:        newTelemetry(opts),
		commits:     opts.Commits,
		stop:        opts.Stop,
		requeues:    opts.InitialRequeues,
	}
	e.res = &Result{}
	return e
}

// run is the state machine: admit due arrivals → form round → execute
// → requeue-or-retire → fold stats.
func (e *engine) run() (*Result, error) {
	if e.src == nil {
		return nil, fmt.Errorf("runtime: nil arrival source")
	}
	e.tele.beginRun(e.sched.Name(), e.clock.Now())
	// Jobs the source holds as running were recovered from a journal
	// into the scheduler already: the run resumes them.
	for _, st := range e.src.Jobs() {
		if st.State == JobRunning {
			e.tele.jobSubmitted()
		}
	}
	for {
		if e.stopRequested() {
			break
		}
		now := e.clock.Now()
		if err := e.deliverDue(now); err != nil {
			return nil, err
		}
		r, ok := e.sched.NextRound(now)
		if !ok {
			// Idle scheduler: the next event is whichever comes first —
			// the next arrival or the scheduler's own timer.
			if target, have := e.nextEvent(now); have {
				e.clock.AdvanceTo(max(target, now))
				continue
			}
			// No work and no timers. A live source may still produce
			// arrivals: park until it does or closes.
			if e.src.Wait() {
				continue
			}
			if e.stopRequested() {
				break
			}
			if e.sched.PendingJobs() > 0 {
				if st, isSt := e.sched.(scheduler.Stalled); isSt && st.Stalled() {
					return nil, fmt.Errorf("runtime: scheduler %q stalled with %d pending job(s)",
						e.sched.Name(), e.sched.PendingJobs())
				}
				return nil, fmt.Errorf("runtime: scheduler %q idle but %d job(s) incomplete",
					e.sched.Name(), e.sched.PendingJobs())
			}
			break
		}
		// The launch of a round is each included job's transition
		// from waiting to processing (§III-B decomposition).
		waits, err := e.src.JobsStarted(r.JobIDs(), now)
		if err != nil {
			return nil, err
		}
		e.tele.jobsStarted(waits)
		if e.hooks.OnRoundStart != nil {
			e.hooks.OnRoundStart(r, now)
		}
		if err := e.launch(r, now); err != nil {
			var lost *scheduler.RoundLostError
			if !errors.As(err, &lost) {
				return nil, err
			}
			e.requeues++
			if lerr := e.requeueLost(r, now, lost); lerr != nil {
				return nil, lerr
			}
			e.tele.roundLost(r)
			// Arrivals during the failed attempt still join the queue;
			// the re-formed round aligns them too.
		}
	}
	e.finishStats()
	e.res.End = e.clock.Now()
	e.res.Requeues = e.requeues
	e.tele.endRun(e.res)
	for _, st := range e.src.Jobs() {
		if st.seq > 0 {
			e.res.Jobs = append(e.res.Jobs, st)
		}
	}
	slices.SortFunc(e.res.Jobs, func(a, b JobStatus) int { return a.seq - b.seq })
	return e.res, nil
}

// launch executes round r from launch time start to completion — scan
// and reduce — and retires it before the next round forms: the paper's
// Algorithm-1 loop as written. An executor that is a StageTimer runs the
// round through ExecStages, so telemetry sees where the scan ended. A
// *scheduler.RoundLostError return is requeued by the caller; any other
// error aborts the run.
func (e *engine) launch(r scheduler.Round, start vclock.Time) error {
	var dur, mapDur, redDur vclock.Duration
	var err error
	st, split := e.exec.(StageTimer)
	if split {
		mapDur, redDur, err = st.ExecStages(r)
		dur = mapDur + redDur
	} else {
		dur, err = e.exec.ExecRound(r)
	}
	if err != nil {
		var lost *scheduler.RoundLostError
		if errors.As(err, &lost) {
			return err
		}
		return fmt.Errorf("runtime: round over segment %d failed: %w", r.Segment, err)
	}
	if dur < 0 {
		return fmt.Errorf("runtime: executor returned negative duration %v", dur)
	}
	e.requeues = 0
	e.res.Rounds++
	e.clock.AdvanceTo(start.Add(dur))
	now := e.clock.Now()
	// Jobs that arrived while the round ran join the queue before the
	// round is retired, so the very next round can include them (S^3
	// dynamic sub-job adjustment, §IV-D2).
	if err := e.deliverDue(now); err != nil {
		return err
	}
	// Record the round before settling so rounds-per-job counts include
	// the round a job completes in.
	mapEnd := start.Add(mapDur)
	if !split {
		mapEnd, mapDur = now, dur
	}
	e.tele.recordRound(r, e.res.Rounds-1, start, mapEnd, now, mapDur, redDur, split)
	completed := e.sched.RoundDone(r, now)
	if err := e.settleRound(r, now, completed); err != nil {
		return err
	}
	e.tele.queueDepth(e.sched.PendingJobs())
	return nil
}

// stopRequested reports whether Options.Stop has fired, and marks the
// result stopped when it has.
func (e *engine) stopRequested() bool {
	if e.stop == nil {
		return false
	}
	select {
	case <-e.stop:
		e.res.Stopped = true
		return true
	default:
		return false
	}
}

// deliverDue admits every arrival due at now into the scheduler. This
// runs at the top of each loop iteration and again right after a
// round's clock advance, so jobs that arrived while the round ran join
// the queue before the round is retired and the very next round can
// include them (S^3 dynamic sub-job adjustment, §IV-D2).
func (e *engine) deliverDue(now vclock.Time) error {
	arrivals := e.src.Pop(now)
	for _, a := range arrivals {
		if err := e.sched.Submit(a.Job, a.At); err != nil {
			return err
		}
		if err := e.src.JobAdmitted(a.Job.ID, a.At); err != nil {
			return err
		}
		e.tele.jobSubmitted()
	}
	if len(arrivals) > 0 {
		e.tele.admissionDepth(e.src.Pending())
	}
	return nil
}

// nextEvent reports the earliest pending external event: the next
// queued arrival or the scheduler's own timer (window batchers).
func (e *engine) nextEvent(now vclock.Time) (vclock.Time, bool) {
	var target vclock.Time
	have := false
	if at, ok := e.src.Peek(); ok {
		target = at
		have = true
	}
	if w, isWaker := e.sched.(Waker); isWaker {
		if wake, wok := w.NextWake(now); wok && wake > now && (!have || wake < target) {
			target = wake
			have = true
		}
	}
	return target, have
}

// requeueLost processes a round-loss error: advance the clock to the
// end of the time the failed execution, launched at now, consumed
// (a wall clock is there already), then return the round to a
// Recoverable scheduler. Returns an error when the scheduler cannot
// recover or the consecutive-requeue bound is exhausted.
func (e *engine) requeueLost(r scheduler.Round, now vclock.Time, lost *scheduler.RoundLostError) error {
	rec, ok := e.sched.(scheduler.Recoverable)
	if !ok {
		return fmt.Errorf("runtime: round over segment %d lost and scheduler %q cannot requeue: %w", r.Segment, e.sched.Name(), lost)
	}
	if e.requeues > e.maxRequeues {
		return fmt.Errorf("runtime: round over segment %d lost %d consecutive times, giving up: %w", r.Segment, e.requeues, lost)
	}
	if lost.Elapsed < 0 {
		return fmt.Errorf("runtime: executor returned negative lost-round elapsed %v", lost.Elapsed)
	}
	e.clock.AdvanceTo(now.Add(lost.Elapsed))
	rec.RequeueRound(r, e.clock.Now())
	e.res.Faults.Add(metrics.FaultStats{RequeuedRounds: 1, RequeuedSubJobs: len(r.Jobs)})
	return nil
}

// settleRound records a retired round's completions. With a CommitLog
// it then journals the round with the scheduler's snapshot; a snapshot
// that fails here, where the round has just been retired, fails the run
// rather than journaling a round recovery could not resume from.
func (e *engine) settleRound(r scheduler.Round, now vclock.Time, completed []scheduler.JobID) error {
	for _, id := range completed {
		rt, err := e.src.JobFinished(id, now)
		if err != nil {
			return err
		}
		e.tele.jobCompleted(id, rt)
	}
	if e.commits != nil {
		var snapPtr *scheduler.Snapshot
		if sn, ok := e.sched.(scheduler.Snapshottable); ok {
			snap, err := sn.StateSnapshot()
			if err != nil {
				return fmt.Errorf("runtime: snapshot after round over segment %d: %w", r.Segment, err)
			}
			snapPtr = &snap
		}
		e.commits.RoundCommitted(r, now, snapPtr, e.requeues)
		for _, id := range completed {
			e.commits.JobDone(id, now)
		}
	}
	if e.hooks.OnRoundDone != nil {
		e.hooks.OnRoundDone(r, now, completed)
	}
	return nil
}

// finishStats folds the executor's fault and cache counters into the
// run's metrics once the loop ends.
func (e *engine) finishStats() {
	if src, ok := e.exec.(FaultStatsSource); ok {
		e.res.Faults.Add(src.FaultStats())
	}
	if src, ok := e.exec.(CacheStatsSource); ok {
		e.res.Cache.Add(src.CacheStats())
	}
}
