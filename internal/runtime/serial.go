package runtime

import (
	"fmt"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// serialPolicy executes each round to completion — scan and reduce —
// before the next round forms: the paper's Algorithm-1 loop as
// written. It retires the round inline, so poll and idle never have
// asynchronous work to surface.
type serialPolicy struct {
	e *engine
}

func (p *serialPolicy) start()    {}
func (p *serialPolicy) shutdown() {}
func (p *serialPolicy) drain()    {}

func (p *serialPolicy) poll(vclock.Time) error { return nil }

func (p *serialPolicy) idle(vclock.Time, vclock.Time, bool) (bool, error) { return false, nil }

func (p *serialPolicy) launch(r scheduler.Round, launch vclock.Time) error {
	e := p.e
	var dur, mapDur, redDur vclock.Duration
	var err error
	split := false
	if se, staged := e.exec.(StageExecutor); staged && e.tele.active() {
		// Telemetry wants per-stage timings. ExecMapStage + stage()
		// is the same computation ExecRound performs (the
		// StageExecutor contract), just with the boundary visible.
		var stage ReduceStage
		mapDur, stage, err = se.ExecMapStage(r)
		if err == nil {
			if stage == nil {
				return fmt.Errorf("runtime: executor returned a nil reduce stage for segment %d", r.Segment)
			}
			redDur, err = stage()
			if err == nil {
				dur = mapDur + redDur
				split = true
			}
		}
	} else {
		dur, err = e.exec.ExecRound(r)
	}
	if err != nil {
		if isRoundLost(err) {
			return err
		}
		return fmt.Errorf("runtime: round over segment %d failed: %w", r.Segment, err)
	}
	if dur < 0 {
		return fmt.Errorf("runtime: executor returned negative duration %v", dur)
	}
	e.requeues = 0
	e.res.Rounds++
	e.clock.AdvanceTo(launch.Add(dur))
	now := e.clock.Now()
	// Jobs that arrived while the round ran join the queue before
	// the round is retired, so the very next round can include
	// them (S^3 dynamic sub-job adjustment, §IV-D2).
	if err := e.deliverDue(now); err != nil {
		return err
	}
	// Record the round before settling so rounds-per-job counts
	// include the round a job completes in.
	mapEnd := launch.Add(mapDur)
	if !split {
		mapEnd, mapDur, redDur = now, dur, 0
	}
	e.tele.recordRound(r, e.res.Rounds-1, launch, mapEnd, mapEnd, now, now, mapDur, redDur, split)
	completed := e.sched.RoundDone(r, now)
	if err := e.settleRound(r, now, completed); err != nil {
		return err
	}
	e.tele.queueDepth(e.sched.PendingJobs())
	return nil
}
