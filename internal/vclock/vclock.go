// Package vclock provides the clock abstraction shared by the real
// MapReduce engine and the discrete-event simulator.
//
// All scheduling components in this repository express time as
// vclock.Time (seconds, float64) instead of time.Time so that the same
// scheduler code can run under a wall clock (examples, live runs) or a
// virtual clock (deterministic experiments reproducing the paper's
// analytic examples exactly).
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point in time, in seconds since the clock's epoch.
type Time float64

// Duration is a span of time in seconds.
type Duration float64

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// String formats the duration as seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", float64(d)) }

// Seconds returns the duration as a plain float64 of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Clock is what a run loop keeps time with: it reads the time and moves
// it forward to an instant it has to reach.
type Clock interface {
	Now() Time
	// AdvanceTo returns once the clock reads at least t.
	AdvanceTo(t Time)
}

// Wall is a clock backed by the machine's monotonic wall clock.
type Wall struct {
	start time.Time
}

// NewWallSince returns a wall clock whose epoch is the given instant,
// which may be in an earlier process's lifetime. The clock still runs
// on this process's monotonic reading.
func NewWallSince(epoch time.Time) *Wall {
	now := time.Now()
	return &Wall{start: now.Add(-now.Sub(epoch))}
}

// Now returns the seconds elapsed since the clock's epoch.
func (w *Wall) Now() Time { return Time(time.Since(w.start).Seconds()) }

// AdvanceTo sleeps until t; an instant already passed returns at once.
func (w *Wall) AdvanceTo(t Time) {
	for d := t.Sub(w.Now()); d > 0; d = t.Sub(w.Now()) {
		time.Sleep(time.Duration(d * 1e9))
	}
}

// Virtual is a manually advanced clock for deterministic simulation.
// It is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now Time
}

// NewVirtual returns a virtual clock starting at time 0.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AdvanceTo moves the clock forward to t. It panics if t is in the
// past: simulated time never runs backwards, and a backwards step
// always indicates a bug in the event loop.
func (v *Virtual) AdvanceTo(t Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t < v.now {
		panic(fmt.Sprintf("vclock: AdvanceTo(%v) before now=%v", t, v.now))
	}
	v.now = t
}
