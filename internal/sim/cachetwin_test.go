package sim_test

import (
	"testing"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Differential test: the simulator's metadata-only cache twin must
// track the real engine cache counter-for-counter when both sit behind
// the same S^3 scheduler. One scheduler instance drives both sides —
// its scan hints fan out to the real store (which pins and physically
// prefetches under the cursor policy) and to the sim executor (which
// models the same) — and every round's blocks are read on the real
// store at each block's primary holder, exactly where the sim
// attributes them. At the end of the run the two sides' hit, miss,
// eviction, prefetch, byte and pinned-byte counters must agree exactly,
// for every policy. The real side's prefetch loads land from
// goroutines, so the final comparison polls briefly to let in-flight
// readahead settle.
// settleTwin polls until the real store's cache counters match the sim
// twin's — i.e. until in-flight prefetch loads have landed — and
// returns the real side's last snapshot in the sim's stat type. On
// timeout it returns the (still diverged) snapshot for the caller to
// report.
func settleTwin(realStore *dfs.Store, exec *sim.Executor) metrics.CacheStats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := realStore.CacheStats()
		got := metrics.CacheStats{
			Hits:           cs.Hits,
			Misses:         cs.Misses,
			Evictions:      cs.Evictions,
			Prefetches:     cs.Prefetches,
			PrefetchFailed: cs.PrefetchFailed,
			Bytes:          cs.Bytes,
			PinnedBytes:    cs.PinnedBytes,
		}
		if got == exec.CacheStats() || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSimEngineCacheTwinDifferential(t *testing.T) {
	const (
		nodes     = 6
		numBlocks = 24 // 4 segments × 6 blocks: one block per node per segment
		blockSize = int64(1 << 10)
		numJobs   = 3
		seed      = 31
		budget    = 3 * blockSize // per node: under a node's 4-block share
	)
	for _, policy := range dfs.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			mk := func() (*dfs.Store, *dfs.File) {
				s := dfs.MustStore(nodes, 1)
				f, err := workload.AddTextFile(s, "input", numBlocks, blockSize, seed)
				if err != nil {
					t.Fatal(err)
				}
				return s, f
			}
			realStore, f := mk()
			if _, err := realStore.EnableCachePolicy(budget, policy); err != nil {
				t.Fatal(err)
			}
			simStore, _ := mk()
			exec := sim.NewExecutor(sim.NewCluster(nodes, 1), simStore, sim.CostModel{
				ScanMBps: 100, MapMBps: 100, TaskOverhead: 0.01,
			})
			if err := exec.EnableCachePolicy(budget, 0.1, policy); err != nil {
				t.Fatal(err)
			}

			plan, err := dfs.PlanSegments(f, nodes)
			if err != nil {
				t.Fatal(err)
			}
			sched := core.New(plan, nil)
			sched.SetScanHinter(func(h dfs.ScanHint) {
				realStore.HandleScanHint(h)
				exec.HandleScanHint(h)
			})

			// Manual driver loop with a fixed two-tick round duration, so
			// staggered arrivals join mid-scan and wrap around the file.
			metas := make([]scheduler.JobMeta, numJobs)
			for i := range metas {
				metas[i] = scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input", Weight: 1, ReduceWeight: 1}
			}
			arriveAt := []vclock.Time{0, 3, 6}
			next := 0
			now := vclock.Time(0)
			for rounds := 0; ; rounds++ {
				if rounds > 10*numJobs*numBlocks {
					t.Fatal("driver loop did not terminate")
				}
				for next < len(metas) && arriveAt[next] <= now {
					if err := sched.Submit(metas[next], now); err != nil {
						t.Fatal(err)
					}
					next++
				}
				r, ok := sched.NextRound(now)
				if !ok {
					if next < len(metas) {
						now = arriveAt[next]
						continue
					}
					if sched.PendingJobs() == 0 {
						break
					}
					t.Fatal("scheduler idle with pending jobs and no arrivals")
				}
				// Real side: one physical scan of the round's blocks, each
				// read at its primary holder — the engine's attribution on
				// an unreplicated store.
				for _, b := range r.Blocks {
					if _, err := realStore.ReadBlockAt(b, realStore.Locations(b)[0]); err != nil {
						t.Fatalf("read %v: %v", b, err)
					}
				}
				// Sim side: price the identical round through the twin.
				if _, err := exec.ExecRound(r); err != nil {
					t.Fatal(err)
				}
				now += 2
				sched.RoundDone(r, now)
				// RoundDone fired the cursor hint: the sim admitted any
				// prefetched blocks synchronously, the real store is
				// loading them on goroutines. Settle before the next
				// round's reads so both shards see the identical
				// operation order (hint, prefetch admit, then reads) —
				// otherwise a late-landing prefetch shifts the recency
				// order and a later eviction may pick a different victim.
				settleTwin(realStore, exec)
			}

			want := exec.CacheStats()
			got := settleTwin(realStore, exec)
			if got != want {
				t.Fatalf("cache stats diverged:\nengine %+v\nsim    %+v", got, want)
			}
			// The budget sits below each node's share of the file, so the
			// scan floods lru to (near) zero hits; only the
			// cursor policy, which pins the live segments, stays warm.
			if policy == dfs.PolicyCursor {
				if got.Hits == 0 {
					t.Fatal("cursor twin recorded no hits on the circular workload")
				}
				if got.Prefetches == 0 {
					t.Fatal("cursor twin issued no prefetches")
				}
			}
		})
	}
}
