//go:build race

package remote

func init() { raceEnabled = true }
