package core

import (
	"math"
	"testing"

	"s3sched/internal/vclock"
)

func almostf(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// synth generates duration = 2 + 0.5*batch + 0.1*blocks.
func synth(batch, blocks int) vclock.Duration {
	return vclock.Duration(2 + 0.5*float64(batch) + 0.1*float64(blocks))
}

func TestEstimatorRecoversLinearModel(t *testing.T) {
	e := NewEstimator()
	for batch := 1; batch <= 5; batch++ {
		for _, blocks := range []int{10, 20, 40} {
			e.Observe(batch, blocks, synth(batch, blocks))
		}
	}
	for _, tc := range []struct{ batch, blocks int }{{2, 10}, {7, 40}, {10, 80}} {
		got, err := e.PredictRound(tc.batch, tc.blocks)
		if err != nil {
			t.Fatal(err)
		}
		almostf(t, "prediction", got.Seconds(), synth(tc.batch, tc.blocks).Seconds(), 1e-6)
	}
}

func TestEstimatorDegenerateFallsBackToMean(t *testing.T) {
	e := NewEstimator()
	// Identical feature vectors: singular system.
	e.Observe(3, 10, 6)
	e.Observe(3, 10, 8)
	e.Observe(3, 10, 10)
	got, err := e.PredictRound(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	almostf(t, "fallback", got.Seconds(), 8, 1e-9)
}

func TestEstimatorNeedsSamples(t *testing.T) {
	e := NewEstimator()
	if _, err := e.PredictRound(1, 1); err == nil {
		t.Error("no samples should fail")
	}
	e.Observe(1, 1, 1)
	if _, err := e.PredictRound(1, 1); err == nil {
		t.Error("one sample should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid observation should panic")
		}
	}()
	e.Observe(0, 1, 1)
}

func TestPredictCompletionsMatchesSchedule(t *testing.T) {
	// Plan: 4 segments of 2 blocks. Job 1 has 2 segments left, job 2
	// has 4. Feed the estimator the exact synthetic model, then check
	// the rolled-forward predictions against hand computation.
	p := makePlan(t, 8, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Run two rounds so job 1 has 2 segments remaining.
	for i := 0; i < 2; i++ {
		r, _ := s.NextRound(0)
		s.RoundDone(r, 0)
	}
	if err := s.Submit(job(2), 10); err != nil {
		t.Fatal(err)
	}

	e := NewEstimator()
	for batch := 1; batch <= 4; batch++ {
		for _, blocks := range []int{1, 2, 4} {
			e.Observe(batch, blocks, synth(batch, blocks))
		}
	}
	preds, err := e.PredictCompletions(s)
	if err != nil {
		t.Fatal(err)
	}
	// Future: 2 rounds of batch 2 (jobs 1+2, 2 blocks each), then 2
	// rounds of batch 1 for job 2.
	round2 := synth(2, 2).Seconds() // 3.2
	round1 := synth(1, 2).Seconds() // 2.7
	almostf(t, "job 1 completion", preds[1].Seconds(), 2*round2, 1e-9)
	almostf(t, "job 2 completion", preds[2].Seconds(), 2*round2+2*round1, 1e-9)
}

func TestPredictCompletionsInFlight(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	s.NextRound(0)
	e := NewEstimator()
	e.Observe(1, 2, 5)
	e.Observe(2, 2, 6)
	if _, err := e.PredictCompletions(s); err == nil {
		t.Error("prediction mid-round should fail")
	}
}
