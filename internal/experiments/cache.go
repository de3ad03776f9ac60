package experiments

import (
	"fmt"
	"sort"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Cache study: how much of the repeated-arrival penalty a node-local
// block cache recovers, and how much of that recovery depends on the
// eviction policy. The workload is the paper's sparse pattern — three
// waves of wordcount jobs over the same 160 GB input — under S^3: each
// wave's jobs join mid-scan and wrap around the file, so the run makes
// several full passes and re-scans every block it already paid for.
//
// The sweep deliberately includes an undersized point: LRU under a
// circular scan has a cliff, not a slope. When a node's warm set is
// smaller than its share of the scan cycle, every block is evicted just
// before the cursor returns to it, so hits stay near zero until the
// budget covers the whole cycle (the classic sequential-flooding
// pathology). The cursor policy removes the cliff: it pins exactly the
// segments the JQM's circular cursor will scan next — and prefetches
// them — so its hit ratio is set by the scheduler's lookahead, not the
// budget.

// CachePoint is one (policy, cache size) cell of the sim sweep. The
// budget-0 baseline runs once with Policy empty — with caching off
// there is no policy to pick.
type CachePoint struct {
	Policy       string // eviction policy; "" on the cache-off baseline
	CacheMB      int    // per-node budget in MB; 0 = caching off
	Summary      metrics.Summary
	Rounds       int
	CachedBlocks int64 // reads served warm across the run
	HitRatio     float64
	Evictions    int64
	Prefetches   int64 // readahead issued (cursor policy only)
}

// CacheEngineCheck is the real-engine transparency check for one
// policy: the same staggered wordcount workload run cache-off and
// cache-on must produce byte-identical outputs, with the cache-on run
// doing no more disk work.
type CacheEngineCheck struct {
	Policy           string
	Jobs             int
	OutputsIdentical bool
	CacheHits        int64
	Prefetches       int64
	ColdReads        int64 // physical block reads with caching off
	WarmReads        int64 // physical block reads with caching on
}

// CacheStudyResult is the full study: the sim policy×budget sweep plus
// one engine transparency check per policy.
type CacheStudyResult struct {
	Frac     float64  // cached scan cost as a fraction of disk cost
	Policies []string // policies swept, in output order
	Points   []CachePoint
	Engine   []CacheEngineCheck
}

// CacheStudy sweeps per-node cache budgets (MB; include 0 for the
// baseline) crossed with eviction policies (nil = all of
// dfs.Policies()) over the sparse repeated-arrival workload, pricing
// warm reads at frac of the disk scan cost, then runs the real-engine
// byte-identity check once per policy. Every cached cell runs the
// policy-twin simulator cache wired to the S^3 scheduler's scan hints,
// so the cursor policy's pinning and readahead are exercised exactly as
// the engine would see them.
func CacheStudy(perNodeMBs []int, frac float64, policies []string) (CacheStudyResult, error) {
	if len(policies) == 0 {
		policies = dfs.Policies()
	}
	for _, pol := range policies {
		if !dfs.ValidPolicy(pol) {
			return CacheStudyResult{}, fmt.Errorf("experiments: unknown cache policy %q", pol)
		}
	}
	if frac < 0 || frac > 1 {
		return CacheStudyResult{}, fmt.Errorf("experiments: cached scan fraction %v outside [0,1]", frac)
	}
	for _, mb := range perNodeMBs {
		if mb < 0 {
			return CacheStudyResult{}, fmt.Errorf("experiments: negative cache budget %d MB", mb)
		}
	}

	p := DefaultParams()
	metas := workload.WordCountMetas(NumJobs, "input", 1, 1)
	times := p.SparsePattern()
	arrivals := make([]runtime.Arrival, len(metas))
	for i := range metas {
		arrivals[i] = runtime.Arrival{Job: metas[i], At: times[i]}
	}

	runPoint := func(mb int, policy string) (CachePoint, error) {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return CachePoint{}, err
		}
		exec := sim.NewExecutor(env.Cluster, env.Store, env.Model)
		sched := core.New(env.Plan, nil)
		if mb > 0 {
			if err := exec.EnableCachePolicy(int64(mb)<<20, frac, policy); err != nil {
				return CachePoint{}, err
			}
			sched.SetScanHinter(exec.HandleScanHint)
		}
		res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
		if err != nil {
			return CachePoint{}, fmt.Errorf("experiments: cache run %s/%d MB: %w", policy, mb, err)
		}
		sum, err := res.Metrics.Summarize(fmt.Sprintf("cache-%s-%dmb", policy, mb))
		if err != nil {
			return CachePoint{}, err
		}
		cs := exec.CacheStats()
		return CachePoint{
			Policy:       policy,
			CacheMB:      mb,
			Summary:      sum,
			Rounds:       res.Rounds,
			CachedBlocks: exec.Stats().CachedBlocks,
			HitRatio:     cs.HitRatio(),
			Evictions:    cs.Evictions,
			Prefetches:   cs.Prefetches,
		}, nil
	}

	out := CacheStudyResult{Frac: frac, Policies: policies}
	for _, mb := range perNodeMBs {
		if mb != 0 {
			continue
		}
		pt, err := runPoint(0, "")
		if err != nil {
			return CacheStudyResult{}, err
		}
		out.Points = append(out.Points, pt)
		break // one baseline regardless of how many zeros were passed
	}
	for _, policy := range policies {
		for _, mb := range perNodeMBs {
			if mb == 0 {
				continue
			}
			pt, err := runPoint(mb, policy)
			if err != nil {
				return CacheStudyResult{}, err
			}
			out.Points = append(out.Points, pt)
		}
		eng, err := cacheEngineCheck(policy)
		if err != nil {
			return CacheStudyResult{}, err
		}
		out.Engine = append(out.Engine, eng)
	}
	return out, nil
}

// cacheEngineCheck runs the same staggered wordcount workload on the
// real engine with and without a store cache under the given policy and
// compares outputs byte for byte. Arrivals are staggered so later jobs
// wrap around the file and re-read blocks earlier jobs already scanned
// — exactly the repeats the cache absorbs. The store is unreplicated
// and the scheduler's hints are wired in, so under the cursor policy
// the check also exercises pinning and readahead on the real read path.
func cacheEngineCheck(policy string) (CacheEngineCheck, error) {
	const (
		nodes     = 8
		blocks    = 32
		blockSize = 4 << 10
		jobs      = 3
		seed      = 11
	)
	run := func(cacheBytes int64) (map[scheduler.JobID]*mapreduce.Result, dfs.Stats, dfs.CacheStats, error) {
		store := dfs.MustStore(nodes, 1)
		if _, err := workload.AddTextFile(store, "corpus", blocks, blockSize, seed); err != nil {
			return nil, dfs.Stats{}, dfs.CacheStats{}, err
		}
		if cacheBytes > 0 {
			if _, err := store.EnableCachePolicy(cacheBytes, policy); err != nil {
				return nil, dfs.Stats{}, dfs.CacheStats{}, err
			}
		}
		f, err := store.File("corpus")
		if err != nil {
			return nil, dfs.Stats{}, dfs.CacheStats{}, err
		}
		plan, err := dfs.PlanSegments(f, nodes)
		if err != nil {
			return nil, dfs.Stats{}, dfs.CacheStats{}, err
		}
		engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
		specs := make(map[scheduler.JobID]mapreduce.JobSpec)
		var arrivals []runtime.Arrival
		prefixes := workload.DistinctPrefixes(jobs)
		for i := 0; i < jobs; i++ {
			id := scheduler.JobID(i + 1)
			specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefixes[i], 2)
			arrivals = append(arrivals, runtime.Arrival{
				Job: scheduler.JobMeta{ID: id, File: "corpus"},
				At:  vclock.Time(i),
			})
		}
		exec := mapreduce.NewExecutor(engine, specs)
		sched := core.New(plan, nil)
		if cacheBytes > 0 {
			sched.SetScanHinter(store.HandleScanHint)
		}
		if _, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{}); err != nil {
			return nil, dfs.Stats{}, dfs.CacheStats{}, err
		}
		return exec.Results(), store.Stats(), store.CacheStats(), nil
	}

	cold, coldStats, _, err := run(0)
	if err != nil {
		return CacheEngineCheck{}, err
	}
	warm, warmStats, warmCache, err := run(int64(blocks) * blockSize * 2)
	if err != nil {
		return CacheEngineCheck{}, err
	}
	return CacheEngineCheck{
		Policy:           policy,
		Jobs:             jobs,
		OutputsIdentical: resultsIdentical(cold, warm),
		CacheHits:        warmCache.Hits,
		Prefetches:       warmCache.Prefetches,
		ColdReads:        coldStats.BlockReads,
		WarmReads:        warmStats.BlockReads,
	}, nil
}

// resultsIdentical compares two runs' job outputs byte for byte.
func resultsIdentical(a, b map[scheduler.JobID]*mapreduce.Result) bool {
	if len(a) != len(b) {
		return false
	}
	ids := make([]scheduler.JobID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ra, rb := a[id], b[id]
		if rb == nil || ra.Name != rb.Name || len(ra.Output) != len(rb.Output) {
			return false
		}
		for i := range ra.Output {
			if ra.Output[i] != rb.Output[i] {
				return false
			}
		}
	}
	return true
}
