package experiments

import (
	"fmt"

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
	arrivals := wordcountArrivals(p.SparsePattern(), 1, 1)

	runPoint := func(mb int, policy string) (CachePoint, error) {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return CachePoint{}, err
		}
		scheme := schemes(fmt.Sprintf("cache-%s-%dmb=s3", policy, mb))[0]
		run, err := Simulate(env, scheme, nil, arrivals, runtime.Options{}, func(sched scheduler.Scheduler, exec *sim.Executor) error {
			if mb == 0 {
				return nil
			}
			wireScanHints(sched, exec.HandleScanHint)
			return exec.EnableCachePolicy(int64(mb)<<20, frac, policy)
		})
		if err != nil {
			return CachePoint{}, err
		}
		cs := run.Result.Metrics.CacheStats()
		return CachePoint{
			Policy:       policy,
			CacheMB:      mb,
			Summary:      run.Summary,
			Rounds:       run.Result.Rounds,
			CachedBlocks: run.Stats.CachedBlocks,
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
	coldStore, cold, _, err := engineWordcount(11, 1, nil)
	if err != nil {
		return CacheEngineCheck{}, err
	}
	warmStore, warm, _, err := engineWordcount(11, 1, func(store *dfs.Store, sched *core.S3, _ *mapreduce.Executor) error {
		sched.SetScanHinter(store.HandleScanHint)
		_, err := store.EnableCachePolicy(2*engineBlocks*engineBlockSize, policy)
		return err
	})
	if err != nil {
		return CacheEngineCheck{}, err
	}
	return CacheEngineCheck{
		Policy:           policy,
		Jobs:             engineJobs,
		OutputsIdentical: digestResults(cold.Results()) == digestResults(warm.Results()),
		CacheHits:        warmStore.CacheStats().Hits,
		Prefetches:       warmStore.CacheStats().Prefetches,
		ColdReads:        coldStore.Stats().BlockReads,
		WarmReads:        warmStore.Stats().BlockReads,
	}, nil
}

// The real-engine fixture of the cache check and the partial-
// aggregation ablation: three prefix-filtered wordcount jobs over a
// generated 32-block corpus on 8 nodes.
const (
	engineNodes     = 8
	engineBlocks    = 32
	engineBlockSize = 4 << 10
	engineJobs      = 3
)

// engineWordcount runs the fixture through S^3 on the real engine, job
// i arriving at i×stagger. tune, when set, adjusts the store, the
// scheduler and the executor before the first arrival.
func engineWordcount(seed int64, stagger vclock.Time, tune func(*dfs.Store, *core.S3, *mapreduce.Executor) error) (*dfs.Store, *mapreduce.Executor, *runtime.Result, error) {
	store := dfs.MustStore(engineNodes, 1)
	f, err := workload.AddTextFile(store, "corpus", engineBlocks, engineBlockSize, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := dfs.PlanSegments(f, engineNodes)
	if err != nil {
		return nil, nil, nil, err
	}
	specs := make(map[scheduler.JobID]mapreduce.JobSpec)
	var arrivals []runtime.Arrival
	for i, prefix := range workload.DistinctPrefixes(engineJobs) {
		id := scheduler.JobID(i + 1)
		specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefix, 2)
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}, At: stagger * vclock.Time(i)})
	}
	exec := mapreduce.NewExecutor(mapreduce.NewEngine(mapreduce.MustCluster(store, 1)), specs)
	sched := core.New(plan, nil)
	if tune != nil {
		if err := tune(store, sched, exec); err != nil {
			return nil, nil, nil, err
		}
	}
	res, err := runtime.RunTrace(sched, exec, arrivals, runtime.Options{})
	return store, exec, res, err
}
