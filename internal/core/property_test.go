package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/faults"
	"s3sched/internal/mapreduce"
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

// Property: the block cache is invisible to computation. For seeded
// wordcount workloads on the real engine, the cache-on run produces
// byte-identical outputs to the cache-off run while never doing more
// physical reads. Engine runs are comparatively slow, so MaxCount stays
// modest.
func TestCacheTransparencyProperty(t *testing.T) {
	prop := func(seed int64, blocks8, jobs8, budget8 uint8) bool {
		numBlocks := int(blocks8%12) + 4
		numJobs := int(jobs8%3) + 2
		const nodes = 4
		const blockSize = int64(2 << 10)
		// Budget sweeps from undersized (evictions exercised) to roomy.
		budget := (int64(budget8%8) + 1) * blockSize

		run := func(cacheBytes int64) (map[scheduler.JobID]*mapreduce.Result, dfs.Stats, bool) {
			store := dfs.MustStore(nodes, 1)
			if _, err := workload.AddTextFile(store, "corpus", numBlocks, blockSize, seed); err != nil {
				return nil, dfs.Stats{}, false
			}
			if cacheBytes > 0 {
				if _, err := store.EnableCachePolicy(cacheBytes, dfs.PolicyLRU); err != nil {
					return nil, dfs.Stats{}, false
				}
			}
			f, err := store.File("corpus")
			if err != nil {
				return nil, dfs.Stats{}, false
			}
			plan, err := dfs.PlanSegments(f, nodes)
			if err != nil {
				return nil, dfs.Stats{}, false
			}
			engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
			specs := make(map[scheduler.JobID]mapreduce.JobSpec)
			var arrivals []runtime.Arrival
			prefixes := workload.DistinctPrefixes(numJobs)
			for i := 0; i < numJobs; i++ {
				id := scheduler.JobID(i + 1)
				specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefixes[i], 2)
				arrivals = append(arrivals, runtime.Arrival{
					Job: scheduler.JobMeta{ID: id, File: "corpus"},
					At:  vclock.Time(i),
				})
			}
			exec := mapreduce.NewExecutor(engine, specs)
			if _, err := runtime.RunTrace(New(plan, nil), exec, arrivals, runtime.Options{}); err != nil {
				return nil, dfs.Stats{}, false
			}
			return exec.Results(), store.Stats(), true
		}

		cold, coldStats, ok := run(0)
		if !ok {
			return false
		}
		warm, warmStats, ok := run(budget)
		if !ok {
			return false
		}
		if warmStats.BlockReads > coldStats.BlockReads {
			t.Logf("cache increased physical reads: %d > %d", warmStats.BlockReads, coldStats.BlockReads)
			return false
		}
		if len(cold) != len(warm) {
			return false
		}
		for id, rc := range cold {
			rw := warm[id]
			if rw == nil || rc.Name != rw.Name || len(rc.Output) != len(rw.Output) {
				t.Logf("job %d output shape diverged", id)
				return false
			}
			for i := range rc.Output {
				if rc.Output[i] != rw.Output[i] {
					t.Logf("job %d output[%d] diverged", id, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 18}); err != nil {
		t.Error(err)
	}
}

// fixedDurExec wraps the real mapreduce.Executor but reports constant
// stage durations, so the driver's virtual clock — and with it the
// scheduler's admission decisions and round sequence — is identical
// across runs whose physical work differs (cache on vs off, prefetch
// vs demand loads). Wall time never reaches the scheduler, which makes
// round counts directly comparable.
type fixedDurExec struct {
	inner *mapreduce.Executor
}

func (f *fixedDurExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, stage, err := f.ExecMapStage(r)
	if err != nil {
		return 0, err
	}
	redDur, err := stage()
	if err != nil {
		return 0, err
	}
	return mapDur + redDur, nil
}

func (f *fixedDurExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	_, stage, err := f.inner.ExecMapStage(r)
	if err != nil {
		return 0, nil, err
	}
	return 1, func() (vclock.Duration, error) {
		if _, err := stage(); err != nil {
			return 0, err
		}
		return 1, nil
	}, nil
}

func (f *fixedDurExec) TakeJobFailures() []scheduler.JobFailure { return f.inner.TakeJobFailures() }

// The tentpole acceptance property: every eviction policy is invisible
// to computation on the real engine, with and without injected read
// faults. For each cell of {lru, cursor} × {faults off, on}, the
// cache-on run (scan hints wired, cursor prefetching on the real read
// path) must produce byte-identical job outputs to the cache-off run,
// march through the *same number of rounds*, and never do more
// physical reads. Fault injection stays below the retry budget, so
// recovery is guaranteed and outputs stay exact.
func TestCachePolicyMatrixTransparency(t *testing.T) {
	const (
		nodes     = 4
		numBlocks = 12
		blockSize = int64(2 << 10)
		numJobs   = 3
		seed      = 23
	)
	type outcome struct {
		results map[scheduler.JobID]*mapreduce.Result
		rounds  int
		reads   int64
		hits    int64
	}
	run := func(t *testing.T, policy string, budget int64, withFaults bool) outcome {
		t.Helper()
		store := dfs.MustStore(nodes, 1)
		if _, err := workload.AddTextFile(store, "corpus", numBlocks, blockSize, seed); err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			if _, err := store.EnableCachePolicy(budget, policy); err != nil {
				t.Fatal(err)
			}
		}
		f, err := store.File("corpus")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, nodes)
		if err != nil {
			t.Fatal(err)
		}
		engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
		if withFaults {
			inj, err := faults.New(faults.Config{Seed: 99, ReadFailRate: 0.2, MaxInjectedPerBlock: 2})
			if err != nil {
				t.Fatal(err)
			}
			store.SetReadFault(inj.FailRead)
			if err := engine.SetRetryPolicy(mapreduce.RetryPolicy{MaxAttempts: 4}); err != nil {
				t.Fatal(err)
			}
		}
		specs := make(map[scheduler.JobID]mapreduce.JobSpec)
		var arrivals []runtime.Arrival
		prefixes := workload.DistinctPrefixes(numJobs)
		for i := 0; i < numJobs; i++ {
			id := scheduler.JobID(i + 1)
			specs[id] = workload.WordCountJob(fmt.Sprintf("wc%d", i), "corpus", prefixes[i], 2)
			// Staggered arrivals: later jobs join mid-scan and wrap
			// around the file, so the run re-reads blocks and the cache
			// has repeats to absorb.
			arrivals = append(arrivals, runtime.Arrival{
				Job: scheduler.JobMeta{ID: id, File: "corpus"},
				At:  vclock.Time(2 * i),
			})
		}
		exec := mapreduce.NewExecutor(engine, specs)
		sched := New(plan, nil)
		if budget > 0 {
			sched.SetScanHinter(store.HandleScanHint)
		}
		res, err := runtime.RunTrace(sched, &fixedDurExec{inner: exec}, arrivals, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			results: exec.Results(),
			rounds:  res.Rounds,
			reads:   store.Stats().BlockReads,
			hits:    store.CacheStats().Hits,
		}
	}
	for _, withFaults := range []bool{false, true} {
		withFaults := withFaults
		suffix := "faults-off"
		if withFaults {
			suffix = "faults-on"
		}
		cold := run(t, "", 0, withFaults)
		if len(cold.results) != numJobs {
			t.Fatalf("%s: cold run finished %d jobs, want %d", suffix, len(cold.results), numJobs)
		}
		for _, policy := range dfs.Policies() {
			policy := policy
			t.Run(policy+"/"+suffix, func(t *testing.T) {
				warm := run(t, policy, 6*blockSize, withFaults)
				if warm.rounds != cold.rounds {
					t.Fatalf("round count diverged: cache-on %d, cache-off %d", warm.rounds, cold.rounds)
				}
				if warm.reads > cold.reads {
					t.Fatalf("cache increased physical reads: %d > %d", warm.reads, cold.reads)
				}
				if warm.hits == 0 {
					t.Fatal("cache-on run recorded no hits")
				}
				if len(warm.results) != len(cold.results) {
					t.Fatalf("job count diverged: %d vs %d", len(warm.results), len(cold.results))
				}
				for id, rc := range cold.results {
					rw := warm.results[id]
					if rw == nil || rc.Name != rw.Name || len(rc.Output) != len(rw.Output) {
						t.Fatalf("job %d output shape diverged", id)
					}
					for i := range rc.Output {
						if rc.Output[i] != rw.Output[i] {
							t.Fatalf("job %d output[%d] diverged: %+v vs %+v", id, i, rc.Output[i], rw.Output[i])
						}
					}
				}
			})
		}
	}
}
