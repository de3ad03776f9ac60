package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Property: DynamicS3 under randomly varying slot availability still
// gives every job every block exactly once, in circular order from its
// start block.
func TestDynamicS3CoverageProperty(t *testing.T) {
	prop := func(seed int64, blocks8, nodes8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numBlocks := int(blocks8%30) + 2
		numNodes := int(nodes8%5) + 1
		nJobs := int(n8%4) + 1

		store := dfs.MustStore(numNodes, 1)
		f, err := store.AddMetaFile("input", numBlocks, 64)
		if err != nil {
			return false
		}
		// A slot checker whose estimates we mutate randomly between
		// rounds, sometimes excluding nodes.
		checker := NewSlotChecker(0.5, 1.0, nil)
		all := make([]dfs.NodeID, numNodes)
		for i := range all {
			all[i] = dfs.NodeID(i)
			checker.Observe(all[i], 1.0, 0)
		}
		d, err := NewDynamic(f, all, 1, checker, nil)
		if err != nil {
			return false
		}

		blockSeen := map[scheduler.JobID]map[int]int{}
		firstBlock := map[scheduler.JobID]int{}
		submitted := 0
		steps := 0
		for submitted < nJobs || d.PendingJobs() > 0 {
			steps++
			if steps > 10000 {
				return false
			}
			if submitted < nJobs && (rng.Intn(3) == 0 || d.PendingJobs() == 0) {
				id := scheduler.JobID(submitted + 1)
				if err := d.Submit(scheduler.JobMeta{ID: id, File: "input"}, 0); err != nil {
					return false
				}
				blockSeen[id] = map[int]int{}
				submitted++
				continue
			}
			// Random slot degradation/recovery.
			node := dfs.NodeID(rng.Intn(numNodes))
			if rng.Intn(2) == 0 {
				checker.Observe(node, 0.1, 0)
			} else {
				checker.Observe(node, 1.0, 0)
			}
			r, ok := d.NextRound(0)
			if !ok {
				return false
			}
			if len(r.Blocks) == 0 || len(r.Blocks) > len(r.Nodes) {
				return false // segment must fit the available slots
			}
			for _, j := range r.Jobs {
				for _, b := range r.Blocks {
					if _, started := firstBlock[j.ID]; !started {
						firstBlock[j.ID] = b.Index
					}
					blockSeen[j.ID][b.Index]++
				}
			}
			d.RoundDone(r, 0)
		}
		// Exactly-once coverage per job.
		for id, seen := range blockSeen {
			if len(seen) != numBlocks {
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
			_ = id
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: NoCircular always scans segments 0..k-1 in order within a
// pass, and a job's rounds all belong to a single pass.
func TestNoCircularPassProperty(t *testing.T) {
	prop := func(seed int64, k8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8%8) + 1
		n := int(n8%5) + 1

		store := dfs.MustStore(2, 1)
		f, err := store.AddMetaFile("input", k, 64)
		if err != nil {
			return false
		}
		p, err := dfs.PlanSegments(f, 1)
		if err != nil {
			return false
		}
		s := NewNoCircular(p, nil)

		segsByJob := map[scheduler.JobID][]int{}
		submitted := 0
		steps := 0
		for submitted < n || s.PendingJobs() > 0 {
			steps++
			if steps > 10000 {
				return false
			}
			if submitted < n && (rng.Intn(2) == 0 || s.PendingJobs() == 0) {
				id := scheduler.JobID(submitted + 1)
				if err := s.Submit(scheduler.JobMeta{ID: id, File: "input"}, 0); err != nil {
					return false
				}
				submitted++
				continue
			}
			r, ok := s.NextRound(0)
			if !ok {
				return false
			}
			for _, j := range r.Jobs {
				segsByJob[j.ID] = append(segsByJob[j.ID], r.Segment)
			}
			s.RoundDone(r, 0)
		}
		if len(segsByJob) != n {
			return false
		}
		for _, segs := range segsByJob {
			if len(segs) != k {
				return false
			}
			for i, seg := range segs {
				if seg != i {
					return false // always 0..k-1 in order
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: MultiFile never mixes files within a round, serves only
// files with pending jobs, and preserves each file's per-job circular
// coverage.
func TestMultiFileProperty(t *testing.T) {
	prop := func(seed int64, ka8, kb8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ka := int(ka8%6) + 1
		kb := int(kb8%6) + 1
		n := int(n8%6) + 2

		store := dfs.MustStore(2, 1)
		fa, err := store.AddMetaFile("alpha", ka, 64)
		if err != nil {
			return false
		}
		fb, err := store.AddMetaFile("beta", kb, 64)
		if err != nil {
			return false
		}
		pa, err := dfs.PlanSegments(fa, 1)
		if err != nil {
			return false
		}
		pb, err := dfs.PlanSegments(fb, 1)
		if err != nil {
			return false
		}
		m, err := NewMultiFile([]*dfs.SegmentPlan{pa, pb}, nil)
		if err != nil {
			return false
		}

		segsByJob := map[scheduler.JobID][]dfs.BlockID{}
		fileOf := map[scheduler.JobID]string{}
		submitted := 0
		steps := 0
		for submitted < n || m.PendingJobs() > 0 {
			steps++
			if steps > 10000 {
				return false
			}
			if submitted < n && (rng.Intn(2) == 0 || m.PendingJobs() == 0) {
				id := scheduler.JobID(submitted + 1)
				file := "alpha"
				if rng.Intn(2) == 0 {
					file = "beta"
				}
				if err := m.Submit(scheduler.JobMeta{ID: id, File: file, Priority: rng.Intn(3)}, 0); err != nil {
					return false
				}
				fileOf[id] = file
				submitted++
				continue
			}
			r, ok := m.NextRound(0)
			if !ok {
				return false
			}
			file := r.Blocks[0].File
			for _, b := range r.Blocks {
				if b.File != file {
					return false
				}
			}
			for _, j := range r.Jobs {
				if fileOf[j.ID] != file {
					return false // batch contains a foreign job
				}
				segsByJob[j.ID] = append(segsByJob[j.ID], r.Blocks...)
			}
			m.RoundDone(r, 0)
		}
		// Exactly-once block coverage per job, within its own file.
		for id, blocks := range segsByJob {
			want := ka
			if fileOf[id] == "beta" {
				want = kb
			}
			seen := map[int]bool{}
			for _, b := range blocks {
				if b.File != fileOf[id] || seen[b.Index] {
					return false
				}
				seen[b.Index] = true
			}
			if len(seen) != want {
				return false
			}
		}
		return len(segsByJob) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// cacheRun is one wordcount run of cacheRuns: the jobs' outputs, the
// rounds the run took, and the workers' physical reads and cache hits.
type cacheRun struct {
	outputs map[scheduler.JobID]string
	rounds  int
	reads   int64
	hits    int64
}

// runCached drives numJobs wordcount jobs, arriving at 0, 2, 4, … seconds,
// through S^3 on the deployed master and one in-process worker per node
// over a generated corpus, every worker caching budget bytes under policy
// (none at 0). Every round is priced at two seconds, so the round
// sequence — and with it every scheduling decision — is the same whatever
// the workers' caches do.
func runCached(t *testing.T, seed int64, nodes, numBlocks, numJobs int, policy string, budget int64) (cacheRun, error) {
	t.Helper()
	const blockSize = int64(2 << 10)
	stores := make([]*dfs.Store, nodes)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", numBlocks, blockSize, seed); err != nil {
			return cacheRun{}, err
		}
		if budget > 0 {
			if _, err := stores[i].EnableCachePolicy(budget, policy); err != nil {
				return cacheRun{}, err
			}
		}
	}
	f, err := stores[0].File("corpus")
	if err != nil {
		return cacheRun{}, err
	}
	plan, err := dfs.PlanSegments(f, nodes)
	if err != nil {
		return cacheRun{}, err
	}
	jobs := make(map[scheduler.JobID]remote.JobRef)
	var arrivals []runtime.Arrival
	for i, prefix := range workload.DistinctPrefixes(numJobs) {
		id := scheduler.JobID(i + 1)
		jobs[id] = remote.JobRef{Name: fmt.Sprintf("wc%d", i), Factory: "wordcount", Param: prefix, NumReduce: 2}
		// Staggered arrivals: later jobs join mid-scan and wrap around
		// the file, so the run re-reads blocks and the cache has repeats
		// to absorb.
		arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}, At: vclock.Time(2 * i)})
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		return cacheRun{}, err
	}
	defer cluster.Close()
	sched := New(plan, nil)
	if budget > 0 {
		sched.SetScanHinter(cluster.HandleScanHint)
	}
	twoSeconds := runtime.ExecutorFunc(func(r scheduler.Round) (vclock.Duration, error) {
		_, err := cluster.ExecRound(r)
		return 2, err
	})
	res, err := runtime.RunTrace(sched, twoSeconds, arrivals, runtime.Options{})
	if err != nil {
		return cacheRun{}, err
	}
	run := cacheRun{outputs: make(map[scheduler.JobID]string), rounds: res.Rounds}
	for id := range jobs {
		out, err := cluster.JobOutput(id)
		if err != nil {
			return cacheRun{}, err
		}
		run.outputs[id] = fmt.Sprint(out)
	}
	stats, err := cluster.WorkerStats()
	if err != nil {
		return cacheRun{}, err
	}
	for _, st := range stats {
		run.reads += st.BlockReads
		run.hits += st.CacheHits
	}
	return run, nil
}

// Property: the block cache is invisible to computation. For seeded
// wordcount workloads on the deployed master and workers, the cache-on
// run produces byte-identical outputs to the cache-off run while never
// doing more physical reads. Cluster runs are comparatively slow, so
// MaxCount stays modest.
func TestCacheTransparencyProperty(t *testing.T) {
	prop := func(seed int64, blocks8, jobs8, budget8 uint8) bool {
		numBlocks := int(blocks8%12) + 4
		numJobs := int(jobs8%3) + 2
		// Budget sweeps from undersized (evictions exercised) to roomy.
		budget := (int64(budget8%8) + 1) * (2 << 10)
		cold, err := runCached(t, seed, 4, numBlocks, numJobs, "", 0)
		if err != nil {
			t.Log(err)
			return false
		}
		warm, err := runCached(t, seed, 4, numBlocks, numJobs, dfs.PolicyLRU, budget)
		if err != nil {
			t.Log(err)
			return false
		}
		if warm.reads > cold.reads {
			t.Logf("cache increased physical reads: %d > %d", warm.reads, cold.reads)
			return false
		}
		return fmt.Sprint(warm.outputs) == fmt.Sprint(cold.outputs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 18}); err != nil {
		t.Error(err)
	}
}

// The tentpole acceptance property: every eviction policy is invisible
// to computation on the deployed workers. For each policy, the cache-on
// run (scan hints riding the master's map tasks, cursor prefetching on
// the workers' read path) must produce byte-identical job outputs to the
// cache-off run, march through the *same number of rounds*, and never do
// more physical reads.
func TestCachePolicyMatrixTransparency(t *testing.T) {
	const nodes, numBlocks, numJobs, seed = 4, 12, 3, 23
	cold, err := runCached(t, seed, nodes, numBlocks, numJobs, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.outputs) != numJobs {
		t.Fatalf("cold run finished %d jobs, want %d", len(cold.outputs), numJobs)
	}
	for _, policy := range dfs.Policies() {
		t.Run(policy, func(t *testing.T) {
			warm, err := runCached(t, seed, nodes, numBlocks, numJobs, policy, 6*(2<<10))
			if err != nil {
				t.Fatal(err)
			}
			if warm.rounds != cold.rounds {
				t.Fatalf("round count diverged: cache-on %d, cache-off %d", warm.rounds, cold.rounds)
			}
			if warm.reads > cold.reads {
				t.Fatalf("cache increased physical reads: %d > %d", warm.reads, cold.reads)
			}
			if warm.hits == 0 {
				t.Fatal("cache-on run recorded no hits")
			}
			if fmt.Sprint(warm.outputs) != fmt.Sprint(cold.outputs) {
				t.Fatalf("outputs diverged:\ncache-on  %v\ncache-off %v", warm.outputs, cold.outputs)
			}
		})
	}
}
