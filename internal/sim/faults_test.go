package sim

import (
	"errors"
	"testing"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// TestTransientRetriesExtendRound: a high failure rate forces retried
// attempts which add RetrySec each to the round duration, and the
// stats count them. The stage-split path rolls the same schedule and
// charges the retries to the map stage.
func TestTransientRetriesExtendRound(t *testing.T) {
	cluster, store, plan := setup(t, 4, 16, 64*mb)
	model := CostModel{ScanMBps: 64, ReducePerRound: 3}
	r := round(plan, 0, meta(1, 1, 1))
	base, err := NewExecutor(cluster, store, model).ExecRound(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, staged := range []bool{false, true} {
		ex := NewExecutor(cluster, store, model)
		if err := ex.SetFaultModel(FaultModel{
			Seed:          1,
			BlockFailRate: 0.5,
			MaxAttempts:   10,
			RetrySec:      5,
		}); err != nil {
			t.Fatal(err)
		}
		var dur vclock.Duration
		var rerr error
		if staged {
			var mapDur, redDur vclock.Duration
			if mapDur, redDur, rerr = ex.ExecStages(r); rerr == nil {
				almost(t, "reduce stage", redDur.Seconds(), 3)
				dur = mapDur + redDur
			}
		} else {
			dur, rerr = ex.ExecRound(r)
		}
		if rerr != nil {
			t.Fatalf("staged=%v: round lost: %v", staged, rerr)
		}
		st := ex.FaultStats()
		if st.Retries == 0 {
			t.Fatalf("staged=%v: rate 0.5 over 4 blocks rolled zero retries; schedule changed?", staged)
		}
		almost(t, "duration", dur.Seconds(), base.Seconds()+float64(st.Retries)*5)
	}
}

// TestFaultScheduleDeterministic: two executors with equal models replay
// identical durations, errors, and counters across a round sequence —
// the acceptance criterion for reproducible fault schedules.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() ([]float64, []string, int) {
		cluster, store, plan := setup(t, 4, 16, 64*mb)
		ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, MapMBps: 128})
		if err := ex.SetFaultModel(FaultModel{
			Seed:          42,
			BlockFailRate: 0.3,
			MaxAttempts:   3,
			RetrySec:      5,
		}); err != nil {
			t.Fatal(err)
		}
		var durs []float64
		var errs []string
		for seg := 0; seg < 8; seg++ {
			r := round(plan, seg%4, meta(1, 1, 1), meta(2, 2, 1))
			d, err := ex.ExecRound(r)
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			durs = append(durs, d.Seconds())
		}
		return durs, errs, ex.FaultStats().Retries
	}
	d1, e1, r1 := run()
	d2, e2, r2 := run()
	if len(d1) != len(d2) || len(e1) != len(e2) || r1 != r2 {
		t.Fatalf("shapes diverged: (%d,%d,%d) vs (%d,%d,%d)", len(d1), len(e1), r1, len(d2), len(e2), r2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Errorf("round %d duration %v vs %v", i, d1[i], d2[i])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("error %d %q vs %q", i, e1[i], e2[i])
		}
	}
}

// TestRequeuedRoundRerollsAttempts: the attempt chain is keyed on the
// round sequence number, so a round lost to transient failures rolls a
// fresh schedule when requeued instead of deterministically failing
// forever.
func TestRequeuedRoundRerollsAttempts(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	if err := ex.SetFaultModel(FaultModel{
		Seed:          3,
		BlockFailRate: 0.45,
		MaxAttempts:   2,
		RetrySec:      1,
	}); err != nil {
		t.Fatal(err)
	}
	r := round(plan, 0, meta(1, 1, 1))
	lostOnce, succeeded := false, false
	for i := 0; i < 64 && !(lostOnce && succeeded); i++ {
		_, err := ex.ExecRound(r)
		if err != nil {
			var lost *scheduler.RoundLostError
			if !errors.As(err, &lost) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			lostOnce = true
			continue
		}
		succeeded = true
	}
	if !lostOnce || !succeeded {
		t.Fatalf("over 64 replays lost=%v succeeded=%v; want both (re-roll per sequence)", lostOnce, succeeded)
	}
}
