package runtime

import (
	"errors"
	"fmt"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// isRoundLost reports whether err is (or wraps) a round-loss the
// engine should requeue rather than abort on.
func isRoundLost(err error) bool {
	var lost *scheduler.RoundLostError
	return errors.As(err, &lost)
}

type stageOutcome struct {
	dur vclock.Duration
	err error
}

// pendingRound is a round whose scan/map stage finished but which has
// not been retired yet: its reduce stage is queued, running, or done.
type pendingRound struct {
	r        scheduler.Round
	seq      int
	stage    ReduceStage
	mapStart vclock.Time
	mapEnd   vclock.Time
	mapDur   vclock.Duration
	outcome  chan stageOutcome
	// got/out stash a received outcome so non-blocking polls are not
	// lost when the round cannot retire yet.
	got bool
	out stageOutcome
}

// pipelinedPolicy is the stage-pipelined execution mode. The virtual
// clock is driven by map stages: as soon as round N's map finishes the
// scheduler is told (MapDone) and round N+1 may form, while N's reduce
// drains on one of ReduceWorkers workers. Reduce time is charged
// against virtual reduce slots — a round's reduce starts at
// max(its map end, earliest slot free) — and rounds retire strictly in
// launch order (retire = max(own reduce end, previous retire)), which
// preserves the paper's Algorithm-1 completion semantics: RoundDone is
// still called once per round, in round order, with the reduce-end
// time.
type pipelinedPolicy struct {
	e    *engine
	sa   scheduler.StageAware
	exec StageExecutor

	workers int
	// tasks feeds reduce stages to the worker pool in FIFO launch
	// order. The buffer only affects wall-clock batching, never virtual
	// timing: measured reduce durations come from inside the stages.
	tasks chan *pendingRound
	// slotFree are the virtual reduce slots; inflight is launch order,
	// head retires first; lastRetire is the retirement frontier.
	slotFree   []vclock.Time
	inflight   []*pendingRound
	lastRetire vclock.Time
	seq        int
	closed     bool
}

func newPipelinedPolicy(e *engine, sa scheduler.StageAware, exec StageExecutor, opts Options) *pipelinedPolicy {
	workers := opts.ReduceWorkers
	if workers <= 0 {
		workers = DefaultReduceWorkers
	}
	return &pipelinedPolicy{
		e:        e,
		sa:       sa,
		exec:     exec,
		workers:  workers,
		slotFree: make([]vclock.Time, workers),
	}
}

func (p *pipelinedPolicy) start() {
	p.tasks = make(chan *pendingRound, 4*p.workers)
	for w := 0; w < p.workers; w++ {
		go func() {
			for t := range p.tasks {
				d, err := t.stage()
				t.outcome <- stageOutcome{dur: d, err: err}
			}
		}()
	}
}

func (p *pipelinedPolicy) shutdown() {
	if p.closed || p.tasks == nil {
		return
	}
	p.closed = true
	close(p.tasks)
}

// await fetches h's outcome, blocking or polling.
func (p *pipelinedPolicy) await(h *pendingRound, block bool) bool {
	if h.got {
		return true
	}
	if block {
		h.out = <-h.outcome
		h.got = true
		return true
	}
	select {
	case h.out = <-h.outcome:
		h.got = true
		return true
	default:
		return false
	}
}

// drain blocks until every in-flight reduce stage has reported, so
// error returns never leak goroutines mid-stage.
func (p *pipelinedPolicy) drain() {
	for _, h := range p.inflight {
		p.await(h, true)
	}
}

// plan computes, without committing, where h's reduce runs and when
// the round would retire. Valid only for the head of inflight (the
// slot assignment assumes every earlier round has been planned).
func (p *pipelinedPolicy) plan(h *pendingRound) (slot int, start, end, retire vclock.Time) {
	slot = 0
	for i := range p.slotFree {
		if p.slotFree[i] < p.slotFree[slot] {
			slot = i
		}
	}
	start = h.mapEnd
	if p.slotFree[slot] > start {
		start = p.slotFree[slot]
	}
	end = start.Add(h.out.dur)
	retire = end
	if p.lastRetire > retire {
		retire = p.lastRetire
	}
	return
}

// retire commits the head round: charges its reduce to a slot, records
// the round's telemetry, and reports RoundDone/completions at the
// retirement time.
func (p *pipelinedPolicy) retire() error {
	e := p.e
	h := p.inflight[0]
	if h.out.err != nil {
		return fmt.Errorf("runtime: reduce stage of round over segment %d failed: %w", h.r.Segment, h.out.err)
	}
	if h.out.dur < 0 {
		return fmt.Errorf("runtime: executor returned negative reduce duration %v", h.out.dur)
	}
	slot, start, end, ret := p.plan(h)
	p.slotFree[slot] = end
	p.lastRetire = ret
	// Record before settling so rounds-per-job counts include the
	// round a job completes in.
	e.tele.recordRound(h.r, h.seq, h.mapStart, h.mapEnd, start, end, ret, h.mapDur, h.out.dur, true)
	completed := e.sched.RoundDone(h.r, ret)
	if err := e.settleRound(h.r, ret, completed); err != nil {
		return err
	}
	e.tele.queueDepth(e.sched.PendingJobs())
	p.inflight = p.inflight[1:]
	return nil
}

// poll opportunistically retires rounds whose reduce has both finished
// running and finished within the current virtual time, keeping
// completions (and hooks) as timely as in the serial policy.
func (p *pipelinedPolicy) poll(now vclock.Time) error {
	for len(p.inflight) > 0 && p.await(p.inflight[0], false) {
		h := p.inflight[0]
		if h.out.err == nil && h.out.dur >= 0 {
			if _, _, _, ret := p.plan(h); ret > now {
				break
			}
		}
		if err := p.retire(); err != nil {
			return err
		}
	}
	return nil
}

// idle drains the oldest in-flight reduce when the scheduler has
// nothing runnable. If an arrival or scheduler timer lands before the
// oldest reduce retires, the clock wakes for it instead, so the next
// round's scan starts under the draining reduce.
func (p *pipelinedPolicy) idle(now vclock.Time, target vclock.Time, have bool) (bool, error) {
	if len(p.inflight) == 0 {
		return false, nil
	}
	h := p.inflight[0]
	p.await(h, true)
	if h.out.err == nil && h.out.dur >= 0 {
		if _, _, _, ret := p.plan(h); have && target < ret {
			if target < now {
				target = now
			}
			p.e.clock.AdvanceTo(target)
			return true, nil
		}
	}
	if err := p.retire(); err != nil {
		return true, err
	}
	if p.lastRetire > p.e.clock.Now() {
		p.e.clock.AdvanceTo(p.lastRetire)
	}
	return true, nil
}

func (p *pipelinedPolicy) launch(r scheduler.Round, now vclock.Time) error {
	e := p.e
	mapDur, stage, err := p.exec.ExecMapStage(r)
	if err != nil {
		if isRoundLost(err) {
			// The scheduler has not been told MapDone, so its state
			// still holds the round; the engine returns it to the queue
			// and the next NextRound re-forms the same batch.
			return err
		}
		return fmt.Errorf("runtime: map stage of round over segment %d failed: %w", r.Segment, err)
	}
	if mapDur < 0 {
		return fmt.Errorf("runtime: executor returned negative map duration %v", mapDur)
	}
	if stage == nil {
		return fmt.Errorf("runtime: executor returned a nil reduce stage for segment %d", r.Segment)
	}
	e.requeues = 0
	e.res.Rounds++
	e.clock.AdvanceTo(now.Add(mapDur))
	mapEnd := e.clock.Now()
	// The scheduler's state (cursor, active set) advances at map end:
	// the next round may be formed while this round's reduce drains.
	p.sa.MapDone(r, mapEnd)
	h := &pendingRound{
		r:        r,
		seq:      p.seq,
		stage:    stage,
		mapStart: now,
		mapEnd:   mapEnd,
		mapDur:   mapDur,
		outcome:  make(chan stageOutcome, 1),
	}
	p.seq++
	p.inflight = append(p.inflight, h)
	// A simulator's reduce stage is a constant. Run inline, when the round
	// retires follows from virtual time alone, not from when the Go
	// scheduler lets a worker report: spans and hooks keep one order.
	if _, timeless := p.exec.(interface{ TimelessStages() }); timeless {
		d, err := stage()
		h.got, h.out = true, stageOutcome{dur: d, err: err}
	} else {
		p.tasks <- h
	}
	return nil
}
