package main

import (
	"sync"
	"testing"

	"s3sched/internal/experiments"
)

// TestScoreConcurrently: calibrate scores its candidates on every core
// at once, so scorings running side by side must not share state. Each
// of them holds every claim for the shipped calibration, and a
// candidate that breaks some scores them the same way every time.
func TestScoreConcurrently(t *testing.T) {
	worse := experiments.DefaultParams()
	worse.HeavyMapW, worse.HeavyReduceW = 14, 40 // calibrate's #4: one claim fails
	params := []experiments.Params{experiments.DefaultParams(), worse, experiments.DefaultParams(), worse}
	got := make([][]string, len(params))
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	for i, p := range params {
		wg.Add(1)
		go func(i int, p experiments.Params) {
			defer wg.Done()
			got[i], errs[i] = score(p)
		}(i, p)
	}
	wg.Wait()
	for i := range params {
		if errs[i] != nil {
			t.Fatalf("scoring %d: %v", i, errs[i])
		}
	}
	if len(got[0]) != 0 || len(got[2]) != 0 {
		t.Errorf("the shipped calibration violates %v / %v", got[0], got[2])
	}
	if len(got[1]) != 1 || len(got[3]) != 1 || got[1][0] != got[3][0] {
		t.Errorf("heavy=(14,40) scored %v and %v, want the same one violation", got[1], got[3])
	}
}
