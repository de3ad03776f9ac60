package experiments

import (
	"testing"

	"s3sched/internal/dfs"
)

// TestCacheStudy runs the full policy×budget sweep at the budgets the
// bench baseline gates on: 0 (off), 2048 (undersized — LRU's cliff) and
// 4096 (a node's whole share). It asserts the ISSUE acceptance shape:
// the cursor policy keeps hits above zero on the undersized point,
// the policies are ordered cursor ≥ lru at every budget, the cursor
// policy strictly beats LRU's TET at 2 GB/node, and every policy's
// engine check is byte-identical.
func TestCacheStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	res, err := CacheStudy([]int{0, 2048, 4096}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 2 policies × 2 budgets.
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(res.Points))
	}
	pts := make(map[string]map[int]CachePoint)
	for _, pt := range res.Points {
		if pts[pt.Policy] == nil {
			pts[pt.Policy] = make(map[int]CachePoint)
		}
		pts[pt.Policy][pt.CacheMB] = pt
	}
	off := pts[""][0]
	if off.CachedBlocks != 0 || off.HitRatio != 0 {
		t.Fatalf("baseline point shows cache activity: %+v", off)
	}
	for _, budget := range []int{2048, 4096} {
		lru, cursor := pts[dfs.PolicyLRU][budget], pts[dfs.PolicyCursor][budget]
		if cursor.HitRatio < lru.HitRatio {
			t.Fatalf("policy ordering violated at %d MB: cursor %.3f, lru %.3f",
				budget, cursor.HitRatio, lru.HitRatio)
		}
		// Scan resistance: the undersized budget must not zero out the
		// cursor policy the way it zeroes LRU.
		if cursor.HitRatio <= 0 {
			t.Fatalf("cursor policy lost all hits at %d MB", budget)
		}
		// Caching never slows the repeated-arrival workload down.
		for _, pt := range []CachePoint{lru, cursor} {
			if pt.Summary.TET > off.Summary.TET {
				t.Fatalf("%s at %d MB: cache-on TET %v > cache-off TET %v",
					pt.Policy, budget, pt.Summary.TET, off.Summary.TET)
			}
		}
	}
	// The headline claim: at the 2 GB/node cliff the cursor policy is
	// strictly faster than LRU, and it got there via readahead.
	lru2, cur2 := pts[dfs.PolicyLRU][2048], pts[dfs.PolicyCursor][2048]
	if cur2.Summary.TET >= lru2.Summary.TET {
		t.Fatalf("cursor TET %v not strictly better than lru TET %v at 2048 MB",
			cur2.Summary.TET, lru2.Summary.TET)
	}
	if cur2.Prefetches == 0 {
		t.Fatal("cursor policy issued no prefetches")
	}
	if len(res.Engine) != len(dfs.Policies()) {
		t.Fatalf("engine checks = %d, want one per policy", len(res.Engine))
	}
	for _, eng := range res.Engine {
		if !eng.OutputsIdentical {
			t.Fatalf("%s: engine outputs diverged between cache-off and cache-on runs", eng.Policy)
		}
		if eng.CacheHits == 0 {
			t.Fatalf("%s: engine check recorded no cache hits", eng.Policy)
		}
		if eng.WarmReads > eng.ColdReads {
			t.Fatalf("%s: cache increased physical reads: %d > %d", eng.Policy, eng.WarmReads, eng.ColdReads)
		}
		if eng.Policy == dfs.PolicyCursor && eng.Prefetches == 0 {
			t.Fatal("cursor engine check issued no prefetches")
		}
	}
}

func TestCacheStudyDeterministic(t *testing.T) {
	a, err := CacheStudy([]int{4096}, 0.1, []string{dfs.PolicyCursor})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheStudy([]int{4096}, 0.1, []string{dfs.PolicyCursor})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Points[0], b.Points[0]
	if pa.Summary.TET != pb.Summary.TET || pa.CachedBlocks != pb.CachedBlocks ||
		pa.HitRatio != pb.HitRatio || pa.Prefetches != pb.Prefetches {
		t.Fatalf("cache study is nondeterministic: %+v vs %+v", pa, pb)
	}
}

func TestCacheStudyRejectsBadInput(t *testing.T) {
	if _, err := CacheStudy([]int{-1}, 0.1, nil); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := CacheStudy([]int{64}, 1.5, nil); err == nil {
		t.Fatal("fraction above 1 accepted")
	}
	if _, err := CacheStudy([]int{64}, 0.1, []string{"clock"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
