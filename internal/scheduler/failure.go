package scheduler

import (
	"fmt"

	"s3sched/internal/vclock"
)

// RoundLostError reports that a round's scan could not complete even
// after every retry and replica failover: some block had no surviving
// readable replica. The round consumed Elapsed of cluster time before
// being declared lost. Drivers recover by re-driving the round through
// a Recoverable scheduler; schedulers without recovery fail the run.
type RoundLostError struct {
	// Round is the lost round as the scheduler formed it.
	Round Round
	// Elapsed is how much virtual/wall time the failed execution
	// consumed — for crash-induced losses, typically the wait until the
	// earliest replica holder recovers, so a requeued round finds at
	// least one replica alive.
	Elapsed vclock.Duration
	// Err is the underlying failure (e.g. no worker could run a task).
	Err error
}

func (e *RoundLostError) Error() string {
	return fmt.Sprintf("scheduler: round over segment %d lost after %v: %v", e.Round.Segment, e.Elapsed, e.Err)
}

func (e *RoundLostError) Unwrap() error { return e.Err }

// Recoverable is implemented by schedulers that can recover from
// partial failure. S^3 extends its dynamic sub-job adjustment to
// failure: a lost segment round requeues the affected sub-jobs at the
// unchanged cursor; the baselines resubmit the lost round whole.
type Recoverable interface {
	// RequeueRound returns the in-flight round returned by the last
	// NextRound to the queue after its execution was lost. The
	// scheduler must not treat the round's segment as consumed: the
	// next NextRound re-forms a round over the same segment (possibly
	// with newly aligned jobs). Called instead of RoundDone.
	RequeueRound(r Round, now vclock.Time)
}
