package sim

import (
	"math"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

const mb = 1 << 20

func setup(t *testing.T, nodes, blocks int, blockSize int64) (*Cluster, *dfs.Store, *dfs.SegmentPlan) {
	t.Helper()
	store := dfs.MustStore(nodes, 1)
	f, err := store.AddMetaFile("input", blocks, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(nodes, 1), store, plan
}

func meta(id int, w, rw float64) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: "input", Weight: w, ReduceWeight: rw}
}

func round(plan *dfs.SegmentPlan, seg int, jobs ...scheduler.JobMeta) scheduler.Round {
	return scheduler.Round{Segment: seg, Blocks: plan.Blocks(seg), Jobs: jobs}
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestScanOnlyRoundDuration(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb) // 2 segments of 4
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 6.4})
	d, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// 64 MB at 6.4 MB/s, one block per slot, one wave -> 10 s.
	almost(t, "duration", d.Seconds(), 10)
}

func TestSharedScanCostsOneScan(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 6.4})
	d1, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	d3, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1), meta(2, 1, 1), meta(3, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Pure-scan model: sharing is free.
	almost(t, "shared duration", d3.Seconds(), d1.Seconds())
}

func TestMapCostScalesWithBatchAndWeight(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, MapMBps: 128})
	d1, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	almost(t, "one job", d1.Seconds(), 1+0.5)
	d2, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 1), meta(2, 1, 1)))
	almost(t, "two jobs", d2.Seconds(), 1+2*0.5)
	dHeavy, _ := ex.ExecRound(round(plan, 0, meta(1, 3, 1)))
	almost(t, "heavy job", dHeavy.Seconds(), 1+3*0.5)
}

func TestOverheadsAndSharePenalty(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{
		ScanMBps:       64,
		TaskOverhead:   0.4,
		DispatchPerJob: 0.25,
		RoundOverhead:  2,
		SharePenalty:   0.1,
		ReducePerRound: 3,
	})
	// n=2 jobs: scan 1s*(1+0.1) + task 0.4 (shared) + 2 dispatches*0.25
	// + round 2 + reduce 2*3.
	d, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1), meta(2, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "duration", d.Seconds(), 1.1+0.4+0.5+2+6)
}

func TestTaskOverheadSharedAcrossBatch(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, TaskOverhead: 2})
	d1, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	d5, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 1), meta(2, 1, 1), meta(3, 1, 1), meta(4, 1, 1), meta(5, 1, 1)))
	// A merged batch runs one physical task per block: the task
	// overhead does not grow with batch size.
	almost(t, "shared task overhead", d5.Seconds(), d1.Seconds())
}

func TestJobSetupChargedOnFreshJobs(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, JobSetup: 5})
	r := round(plan, 0, meta(1, 1, 1))
	r.FreshJobs = 1
	dFresh, err := ex.ExecRound(r)
	if err != nil {
		t.Fatal(err)
	}
	r.FreshJobs = 0
	dCont, err := ex.ExecRound(r)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "setup delta", dFresh.Seconds()-dCont.Seconds(), 5)
}

func TestReduceWeightScalesReduce(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, ReducePerRound: 1})
	d, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 5)))
	almost(t, "duration", d.Seconds(), 1+5)
}

func TestWavesWhenBlocksExceedSlots(t *testing.T) {
	// 2 nodes, segment of 5 blocks -> 3 waves.
	store := dfs.MustStore(2, 1)
	f, err := store.AddMetaFile("input", 5, 64*mb)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(2, 1)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	d, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "duration", d.Seconds(), 3)
}

func TestStragglerPacesRound(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	cluster.SetSpeed(2, 0.25)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	d, _ := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	almost(t, "straggler round", d.Seconds(), 4)
}

func TestStatsAccumulate(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	if _, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1), meta(2, 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecRound(round(plan, 1, meta(1, 1, 1))); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Rounds != 2 || st.BlocksScanned != 8 || st.MapTasks != 12 {
		t.Errorf("stats = %+v", st)
	}
	if st.SimTime <= 0 {
		t.Error("SimTime should accumulate")
	}
}

func TestExecRoundErrors(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	if _, err := ex.ExecRound(scheduler.Round{}); err == nil {
		t.Error("empty round should fail")
	}
	bad := round(plan, 0, meta(1, 1, 1))
	bad.Blocks = []dfs.BlockID{{File: "ghost", Index: 0}}
	if _, err := ex.ExecRound(bad); err == nil {
		t.Error("unknown file should fail")
	}
}

func TestModelValidation(t *testing.T) {
	if err := (CostModel{}).Validate(); err == nil {
		t.Error("zero ScanMBps should fail")
	}
	if err := (CostModel{ScanMBps: 1, TaskOverhead: -1}).Validate(); err == nil {
		t.Error("negative overhead should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewExecutor with invalid model should panic")
		}
	}()
	NewExecutor(NewCluster(1, 1), dfs.MustStore(1, 1), CostModel{})
}

func TestClusterValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCluster(0, 1) },
		func() { NewCluster(1, 0) },
		func() { NewCluster(2, 1).SetSpeed(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRemotePenaltyChargedWhenHoldersExcluded(t *testing.T) {
	// 4 nodes, replication 1, blocks placed round-robin: block i lives
	// on node i%4. A round restricted to nodes {0,1,2} reads node 3's
	// block remotely.
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64, RemotePenalty: 0.5})

	rLocal := round(plan, 0, meta(1, 1, 1))
	dAll, err := ex.ExecRound(rLocal)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats().RemoteBlocks != 0 {
		t.Fatalf("remote blocks = %d with all nodes used", ex.Stats().RemoteBlocks)
	}

	rRestricted := round(plan, 0, meta(1, 1, 1))
	rRestricted.Nodes = []dfs.NodeID{0, 1, 2}
	dRemote, err := ex.ExecRound(rRestricted)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Stats().RemoteBlocks; got != 1 {
		t.Fatalf("remote blocks = %d, want 1 (node 3's block stranded)", got)
	}
	// 4 blocks on 3 slots: 2 waves; one block pays +50% scan.
	// perBlockAvg = (3*1 + 1.5)/4 = 1.125; 2 waves -> 2.25s.
	almost(t, "restricted round", dRemote.Seconds(), 2.25)
	if dRemote <= dAll {
		t.Fatal("restricted round should cost more than full-locality round")
	}
}

func TestRemotePenaltyZeroByDefault(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	r := round(plan, 0, meta(1, 1, 1))
	r.Nodes = []dfs.NodeID{0, 1, 2}
	if _, err := ex.ExecRound(r); err != nil {
		t.Fatal(err)
	}
	// Penalty disabled: nothing counted as remote.
	if ex.Stats().RemoteBlocks != 0 {
		t.Fatalf("remote blocks = %d, want 0 when penalty disabled", ex.Stats().RemoteBlocks)
	}
}

func TestRoundNodeRestriction(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	cluster.SetSpeed(3, 0.1)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	// Scheduler-side exclusion of the straggler: 4 blocks on 3 nodes,
	// 2 waves at nominal speed.
	r := round(plan, 0, meta(1, 1, 1))
	r.Nodes = []dfs.NodeID{0, 1, 2}
	d, err := ex.ExecRound(r)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "restricted round", d.Seconds(), 2)
	// Unknown node id is an error.
	r.Nodes = []dfs.NodeID{9}
	if _, err := ex.ExecRound(r); err == nil {
		t.Error("unknown node should fail")
	}
}
