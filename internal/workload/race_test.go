//go:build race

package workload_test

// raceEnabled says the race detector is on: its instrumentation
// allocates, and it drops sync.Pool puts at random, which would fail the
// allocation guards.
const raceEnabled = true
