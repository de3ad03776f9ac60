//go:build !race

package workload_test

const raceEnabled = false
