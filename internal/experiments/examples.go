package experiments

import (
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// TwoJobExample is the scenario of §III's Examples 1-3: two identical
// 100-second jobs over a 10-segment file on a single map slot, the
// second arriving offset after the first, under scheme "fifo", "s3" or
// "mrshare" (both jobs in one batch).
func TwoJobExample(scheme string, offset vclock.Time) (tet, art vclock.Duration, err error) {
	spec, err := ParseScheme(scheme)
	if err != nil {
		return 0, 0, err
	}
	env, err := buildEnv("input", 1, 1, 10, 64<<20, sim.CostModel{ScanMBps: 6.4})
	if err != nil {
		return 0, 0, err
	}
	run, err := Simulate(env, spec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: offset},
	})
	return run.Summary.TET, run.Summary.ART, err
}
