package sim

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/vclock"
)

func TestEnableCacheValidation(t *testing.T) {
	cluster, store, _ := setup(t, 2, 4, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	for _, tc := range []struct {
		bytes  int64
		frac   float64
		policy string
	}{
		{0, 0.1, dfs.PolicyLRU},
		{-1, 0.1, dfs.PolicyLRU},
		{1 << 20, -0.5, dfs.PolicyLRU},
		{1 << 20, 1.5, dfs.PolicyLRU},
		{1 << 20, 0.1, "nope"},
	} {
		if err := ex.EnableCachePolicy(tc.bytes, tc.frac, tc.policy); err == nil {
			t.Errorf("EnableCachePolicy(%d, %v, %q) succeeded, want error", tc.bytes, tc.frac, tc.policy)
		}
	}
	if err := ex.EnableCachePolicy(1<<20, 0, dfs.PolicyLRU); err != nil {
		t.Errorf("EnableCachePolicy with frac 0: %v", err)
	}
	if err := ex.EnableCachePolicy(1<<20, 1, dfs.PolicyCursor); err != nil {
		t.Errorf("EnableCachePolicy with frac 1: %v", err)
	}
}

func TestCachedScanPricedAtFraction(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 6.4})
	if err := ex.EnableCachePolicy(2*64*mb, 0.1, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	// Cold pass: full disk price (64 MB at 6.4 MB/s -> 10 s).
	d1, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "cold scan", d1.Seconds(), 10)
	// Warm pass over the same segment: frac of the disk price.
	d2, err := ex.ExecRound(round(plan, 0, meta(2, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "warm scan", d2.Seconds(), 1)

	st := ex.Stats()
	if st.BlocksScanned != 4 {
		t.Fatalf("stats = %+v, want 4 physical scans", st)
	}
	cs := ex.CacheStats()
	if cs.Hits != 4 || cs.Misses != 4 {
		t.Fatalf("cache stats = %+v, want 4 hits / 4 misses", cs)
	}
	if cs.Bytes != 4*64*mb {
		t.Fatalf("warm bytes = %d, want %d", cs.Bytes, 4*64*mb)
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 6.4})
	// Each node's budget covers one of its two blocks, one segment out
	// of two cluster-wide: scanning segment 1 evicts segment 0, so
	// re-scanning segment 0 is cold again — the sequential-flooding
	// pathology bench/cache-cliff.jsonl is built around.
	if err := ex.EnableCachePolicy(64*mb, 0.1, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{0, 1, 0} {
		if _, err := ex.ExecRound(round(plan, seg, meta(1, 1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	cs := ex.CacheStats()
	if cs.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (working set exceeds budget)", cs.Hits)
	}
	if cs.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", cs.Evictions)
	}
}

func TestCachedBlocksSkipRemotePenalty(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	model := CostModel{ScanMBps: 6.4, RemotePenalty: 3}
	restricted := func(ex *Executor) (vclock.Duration, error) {
		// Run on nodes that hold no replica of segment 0's blocks so a
		// cold scan pays the remote penalty.
		r := round(plan, 0, meta(1, 1, 1))
		var nonHolders []dfs.NodeID
		holders := map[dfs.NodeID]bool{}
		for _, b := range r.Blocks {
			for _, n := range store.Locations(b) {
				holders[n] = true
			}
		}
		for i := 0; i < 4; i++ {
			if !holders[dfs.NodeID(i)] {
				nonHolders = append(nonHolders, dfs.NodeID(i))
			}
		}
		if len(nonHolders) == 0 {
			t.Skip("every node holds a replica; cannot form a remote round")
		}
		r.Nodes = nonHolders
		return ex.ExecRound(r)
	}

	ex := NewExecutor(cluster, store, model)
	if err := ex.EnableCachePolicy(2*64*mb, 0.5, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	cold, err := restricted(ex)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := restricted(ex)
	if err != nil {
		t.Fatal(err)
	}
	// The warm pass reads from memory: no remote penalty, and the scan
	// costs frac of the disk price. Cold remote scan = base * (1+3);
	// warm = base * 0.5 with no penalty multiplier.
	if warm >= cold {
		t.Fatalf("warm remote round (%v) not cheaper than cold (%v)", warm, cold)
	}
	ratio := warm.Seconds() / cold.Seconds()
	almost(t, "warm/cold ratio", ratio, 0.5/4)
}

func TestCachedBlocksSkipTransientFaults(t *testing.T) {
	cluster, store, plan := setup(t, 4, 8, 64*mb)
	ex := NewExecutor(cluster, store, CostModel{ScanMBps: 64})
	if err := ex.EnableCachePolicy(2*64*mb, 0.1, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	// Near-certain transient block faults, one attempt: a cold round is
	// lost (deterministic for this seed/sequence).
	hostile := FaultModel{Seed: 1, BlockFailRate: 0.999, MaxAttempts: 1, RetrySec: 1}
	if err := ex.SetFaultModel(hostile); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecRound(round(plan, 0, meta(1, 1, 1))); err == nil {
		t.Fatal("cold round under near-certain fault rate succeeded")
	}
	// Warm the segment with faults off, then go hostile again: warm
	// blocks are memory reads and must not roll transient faults.
	if err := ex.SetFaultModel(FaultModel{Seed: 1, MaxAttempts: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecRound(round(plan, 0, meta(2, 1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := ex.SetFaultModel(hostile); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecRound(round(plan, 0, meta(3, 1, 1))); err != nil {
		t.Fatalf("warm round rolled a transient fault: %v", err)
	}
}
