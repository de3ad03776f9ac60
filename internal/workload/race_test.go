//go:build race

package workload_test

func init() { raceEnabled = true }
