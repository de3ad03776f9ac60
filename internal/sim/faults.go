package sim

import (
	"fmt"
	"math"

	"s3sched/internal/faults"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// FaultModel drives deterministic failure injection in the simulator:
// transient per-block scan failures (each retried attempt costs
// RetrySec of virtual time) and scheduled node crash windows (a round
// whose segment has a block with every replica holder down is lost and
// requeued until a holder recovers). The schedule is a pure function
// of (Seed, round sequence, block, attempt), so two runs with equal
// models produce identical fault histories.
type FaultModel struct {
	// Seed selects the transient-failure schedule.
	Seed int64
	// BlockFailRate is the probability in [0,1) that one block-scan
	// attempt fails transiently.
	BlockFailRate float64
	// MaxAttempts bounds scan attempts per block per round (>= 1).
	// When every attempt fails the round is lost and the scheduler may
	// requeue it (the requeued round rolls fresh attempts).
	MaxAttempts int
	// RetrySec is the virtual time one failed attempt costs (backoff
	// plus task relaunch). The wave barrier waits for retried tasks,
	// so the cost extends the round's map stage.
	RetrySec float64
	// Crashes schedules node-down windows: a node is down when any
	// window covers the round's launch time. Down nodes run no tasks
	// and their replicas are unreadable.
	Crashes []faults.Crash
}

// Validate reports whether the model is usable on a cluster of n nodes.
func (m FaultModel) Validate(n int) error {
	if m.BlockFailRate < 0 || m.BlockFailRate >= 1 {
		return fmt.Errorf("sim: BlockFailRate %v outside [0,1)", m.BlockFailRate)
	}
	if m.MaxAttempts < 1 {
		return fmt.Errorf("sim: MaxAttempts %d, want >= 1", m.MaxAttempts)
	}
	if m.RetrySec < 0 {
		return fmt.Errorf("sim: RetrySec %v is negative", m.RetrySec)
	}
	for i, c := range m.Crashes {
		if int(c.Node) < 0 || int(c.Node) >= n {
			return fmt.Errorf("sim: crash %d names node %d outside cluster of %d", i, c.Node, n)
		}
		if c.To <= c.From {
			return fmt.Errorf("sim: crash %d window [%v,%v) is empty", i, c.From, c.To)
		}
	}
	return nil
}

// SetFaultModel installs the failure model. Passing a zero-rate model
// with no crashes is equivalent to no model at all.
func (e *Executor) SetFaultModel(m FaultModel) error {
	if err := m.Validate(len(e.cluster.nodes)); err != nil {
		return err
	}
	e.fm = &m
	return nil
}

// FaultStats implements runtime.FaultStatsSource.
func (e *Executor) FaultStats() metrics.FaultStats { return e.fstats }

// TimeDependent implements runtime.TimeSensitive: pricing depends on
// the round's launch time only while a fault model is installed.
func (e *Executor) TimeDependent() bool { return e.fm != nil }

// downAt returns the nodes inside a crash window at time t.
func (e *Executor) downAt(t vclock.Time) map[int]bool {
	var down map[int]bool
	for _, c := range e.fm.Crashes {
		if c.From <= t && t < c.To {
			if down == nil {
				down = make(map[int]bool)
			}
			down[int(c.Node)] = true
		}
	}
	return down
}

// ExecRoundAt implements runtime.TimedExecutor: ExecRound evaluated
// under the failure model at virtual time now.
func (e *Executor) ExecRoundAt(r scheduler.Round, now vclock.Time) (vclock.Duration, error) {
	if e.fm == nil {
		return e.ExecRound(r)
	}
	seq := e.roundSeq
	e.roundSeq++

	down := e.downAt(now)
	if len(down) > 0 {
		// A block with every replica holder down cannot be scanned or
		// fetched: the round is lost until the first holder recovers.
		for _, b := range r.Blocks {
			holders := e.store.Locations(b)
			wait := vclock.Duration(math.Inf(1))
			allDown := true
			for _, h := range holders {
				if !down[int(h)] {
					allDown = false
					break
				}
				if w := e.recoveryOf(int(h), now); w < wait {
					wait = w
				}
			}
			if allDown && len(holders) > 0 {
				return 0, &scheduler.RoundLostError{
					Round:   r,
					Elapsed: wait,
					Err:     fmt.Errorf("sim: every replica holder of block %v is down at %v", b, now),
				}
			}
		}
		// Down nodes run no tasks this round; price() sees the
		// shrunken cluster (fewer slots, lost locality).
		e.downNow = down
		defer func() { e.downNow = nil }()
	}

	// Transient scan failures: each block's attempt chain is rolled on
	// (seq, block, attempt) so requeued rounds re-roll. Warm blocks are
	// memory reads — they never touch the disk path, so they cannot fail
	// transiently (mirroring dfs.Store, whose fault hook fires on cache
	// misses only).
	retries := 0
	for _, b := range r.Blocks {
		if e.cacheContains(b) {
			continue
		}
		attempt := 1
		for faults.Roll(e.fm.Seed, uint64(seq), faults.HashBlock(b), uint64(attempt)) < e.fm.BlockFailRate {
			if attempt == e.fm.MaxAttempts {
				e.fstats.FailedAttempts += attempt
				e.fstats.Retries += attempt - 1
				return 0, &scheduler.RoundLostError{
					Round:   r,
					Elapsed: vclock.Duration(float64(attempt) * e.fm.RetrySec),
					Err:     fmt.Errorf("sim: block %v failed %d scan attempts", b, attempt),
				}
			}
			attempt++
		}
		retries += attempt - 1
	}
	e.fstats.Retries += retries
	e.fstats.FailedAttempts += retries

	dur, err := e.ExecRound(r)
	if err != nil {
		return 0, err
	}
	return dur + vclock.Duration(float64(retries)*e.fm.RetrySec), nil
}

// recoveryOf returns how long after now node id's current crash
// window ends (taking the latest end among windows covering now, since
// overlapping windows keep the node down).
func (e *Executor) recoveryOf(id int, now vclock.Time) vclock.Duration {
	end := now
	for _, c := range e.fm.Crashes {
		if int(c.Node) == id && c.From <= now && now < c.To && c.To > end {
			end = c.To
		}
	}
	return end.Sub(now)
}
