package sim

import (
	"fmt"

	"s3sched/internal/faults"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// FaultModel drives deterministic failure injection in the simulator:
// transient per-block scan failures, each retried attempt costing
// RetrySec of virtual time. The schedule is a pure function of (Seed,
// round sequence, block, attempt), so two runs with equal models produce
// identical fault histories.
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
}

// Validate reports whether the model is usable.
func (m FaultModel) Validate() error {
	if m.BlockFailRate < 0 || m.BlockFailRate >= 1 {
		return fmt.Errorf("sim: BlockFailRate %v outside [0,1)", m.BlockFailRate)
	}
	if m.MaxAttempts < 1 {
		return fmt.Errorf("sim: MaxAttempts %d, want >= 1", m.MaxAttempts)
	}
	if m.RetrySec < 0 {
		return fmt.Errorf("sim: RetrySec %v is negative", m.RetrySec)
	}
	return nil
}

// SetFaultModel installs the failure model. Passing a zero-rate model
// is equivalent to no model at all.
func (e *Executor) SetFaultModel(m FaultModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	e.fm = &m
	return nil
}

// FaultStats implements runtime.FaultStatsSource.
func (e *Executor) FaultStats() metrics.FaultStats { return e.fstats }

// rollFaults rolls the round's transient scan failures and returns the
// virtual time their retries cost. Each block's attempt chain is rolled
// on (round sequence, block, attempt), so a requeued round re-rolls.
// Warm blocks are memory reads — they never touch the disk path, so
// they cannot fail transiently (mirroring dfs.Store, whose fault hook
// fires on cache misses only); the roll therefore precedes pricing,
// which warms the cache.
func (e *Executor) rollFaults(r scheduler.Round) (retrySec float64, err error) {
	if e.fm == nil {
		return 0, nil
	}
	seq := e.roundSeq
	e.roundSeq++
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
	return float64(retries) * e.fm.RetrySec, nil
}
