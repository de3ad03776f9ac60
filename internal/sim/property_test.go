package sim

import (
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// Property: round duration is monotone non-decreasing in batch size,
// block count, and every job's weight — the cost model never rewards
// doing more work.
func TestCostMonotonicityProperty(t *testing.T) {
	model := CostModel{
		ScanMBps:       40,
		MapMBps:        2048,
		TaskOverhead:   2.5,
		DispatchPerJob: 0.05,
		RoundOverhead:  0.3,
		JobSetup:       0.2,
		SharePenalty:   0.01,
		ReducePerRound: 0.015,
		ReduceSetup:    0.02,
	}
	prop := func(n8, blocks8, w8 uint8) bool {
		n := int(n8%8) + 1
		blocks := int(blocks8%30) + 2
		w := float64(w8%10) + 1

		store := dfs.MustStore(blocks, 1)
		f, err := store.AddMetaFile("input", blocks, 64<<20)
		if err != nil {
			return false
		}
		plan, err := dfs.PlanSegments(f, blocks)
		if err != nil {
			return false
		}
		ex := NewExecutor(NewCluster(blocks, 1), store, model)

		mkRound := func(batch, nBlocks int, weight float64) scheduler.Round {
			jobs := make([]scheduler.JobMeta, batch)
			for i := range jobs {
				jobs[i] = scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input", Weight: weight, ReduceWeight: 1}
			}
			return scheduler.Round{Segment: 0, Blocks: plan.Blocks(0)[:nBlocks], Jobs: jobs}
		}
		base, err := ex.ExecRound(mkRound(n, blocks-1, w))
		if err != nil {
			return false
		}
		moreJobs, err := ex.ExecRound(mkRound(n+1, blocks-1, w))
		if err != nil {
			return false
		}
		moreBlocks, err := ex.ExecRound(mkRound(n, blocks, w))
		if err != nil {
			return false
		}
		heavier, err := ex.ExecRound(mkRound(n, blocks-1, w+1))
		if err != nil {
			return false
		}
		// Epsilon absorbs float rounding in the per-block averaging
		// (e.g. a sum of 8 equal terms divided by 8 vs 7 by 7).
		const eps = 1e-9
		return moreJobs >= base-eps && moreBlocks >= base-eps && heavier >= base-eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: splitting a round into stages conserves its cost — the
// map-stage duration plus the reduce-stage duration equals ExecRound's
// total, both stages are non-negative, and the split is pure (same
// answer twice).
func TestStageSplitConservesCostProperty(t *testing.T) {
	model := CostModel{
		ScanMBps:       40,
		MapMBps:        2048,
		TaskOverhead:   2.5,
		DispatchPerJob: 0.05,
		RoundOverhead:  0.3,
		JobSetup:       0.2,
		SharePenalty:   0.01,
		ReducePerRound: 0.015,
		ReduceSetup:    0.02,
	}
	prop := func(n8, blocks8, w8 uint8, subJob bool) bool {
		n := int(n8%8) + 1
		blocks := int(blocks8%30) + 2
		w := float64(w8%10) + 1

		store := dfs.MustStore(blocks, 1)
		f, err := store.AddMetaFile("input", blocks, 64<<20)
		if err != nil {
			return false
		}
		plan, err := dfs.PlanSegments(f, blocks)
		if err != nil {
			return false
		}
		ex := NewExecutor(NewCluster(blocks, 1), store, model)

		jobs := make([]scheduler.JobMeta, n)
		for i := range jobs {
			jobs[i] = scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input", Weight: w, ReduceWeight: 1}
		}
		r := scheduler.Round{Segment: 0, Blocks: plan.Blocks(0), Jobs: jobs, SubJobReduce: subJob}
		if !subJob {
			r.Completes = []scheduler.JobID{jobs[n-1].ID}
		}

		total, err := ex.ExecRound(r)
		if err != nil {
			return false
		}
		map1, red1, err := ex.ExecStages(r)
		if err != nil {
			return false
		}
		map2, red2, err := ex.ExecStages(r)
		if err != nil {
			return false
		}
		const eps = 1e-9
		sum := map1 + red1
		return red1 >= 0 && map1 >= 0 && map1 == map2 && red1 == red2 &&
			sum > total-eps && sum < total+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: slowing any node never makes a round faster.
func TestSlowdownNeverHelpsProperty(t *testing.T) {
	prop := func(node8, speed8 uint8) bool {
		const nodes = 6
		store := dfs.MustStore(nodes, 1)
		f, err := store.AddMetaFile("input", nodes, 64<<20)
		if err != nil {
			return false
		}
		plan, err := dfs.PlanSegments(f, nodes)
		if err != nil {
			return false
		}
		model := CostModel{ScanMBps: 40, TaskOverhead: 1}
		r := scheduler.Round{Segment: 0, Blocks: plan.Blocks(0),
			Jobs: []scheduler.JobMeta{{ID: 1, File: "input", Weight: 1, ReduceWeight: 1}}}

		healthy := NewExecutor(NewCluster(nodes, 1), store, model)
		base, err := healthy.ExecRound(r)
		if err != nil {
			return false
		}
		degradedCluster := NewCluster(nodes, 1)
		speed := 0.05 + float64(speed8%90)/100 // 0.05..0.94
		degradedCluster.SetSpeed(int(node8)%nodes, speed)
		degraded := NewExecutor(degradedCluster, store, model)
		d, err := degraded.ExecRound(r)
		if err != nil {
			return false
		}
		return d >= base
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
