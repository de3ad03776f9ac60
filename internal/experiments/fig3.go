package experiments

import (
	"fmt"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Figure 3 (§V-C) measures the cost of combined job processing: n
// wordcount jobs submitted together and executed as one merged batch,
// for n = 1..10. The paper reports total execution time, average map
// time and average reduce time, observing a mild increase (+25.5%
// TET at n=10) that is far below the n-fold cost of sequential
// processing.
//
// Here the experiment runs on the real engine over generated text, so
// the overhead of feeding one scan to n mappers is measured, not
// modeled.

// CombinedCost is one Figure 3 data point.
type CombinedCost struct {
	Jobs int
	// Total is the wall time of the merged batch (map + reduce).
	Total time.Duration
	// MapPhase is the wall time of the shared map round.
	MapPhase time.Duration
	// ReducePhase is the wall time of the reduce phases.
	ReducePhase time.Duration
	// BlockReads is physical scans issued — constant in n.
	BlockReads int64
	// MapTasks is the map tasks the jobs' counters charged — n × blocks.
	MapTasks int64
}

// Fig3Config scales the combined-cost experiment.
type Fig3Config struct {
	MaxJobs   int   // paper: 10
	Blocks    int   // paper: 2560 map tasks; scaled default 64
	BlockSize int64 // bytes per block; scaled default 16 KiB
	NumReduce int   // paper: 30; scaled default 4
	Seed      int64
}

// DefaultFig3Config returns a laptop-scale configuration that finishes
// in well under a second per point.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{MaxJobs: 10, Blocks: 64, BlockSize: 16 << 10, NumReduce: 4, Seed: 1}
}

// Fig3 runs the combined-cost sweep and returns one point per batch
// size 1..MaxJobs.
func Fig3(cfg Fig3Config) ([]CombinedCost, error) {
	if cfg.MaxJobs <= 0 || cfg.Blocks <= 0 || cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("experiments: invalid Fig3 config %+v", cfg)
	}
	var out []CombinedCost
	for n := 1; n <= cfg.MaxJobs; n++ {
		point, err := fig3Point(cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}

// SimCombinedCost is one Figure 3 data point priced by the calibrated
// cost model at full paper scale (2560 blocks, 40 slots). The real
// engine (Fig3) demonstrates the mechanism — constant physical scans,
// growth far below n-fold — but its in-memory "I/O" is much cheaper
// relative to map work than the authors' disks, so its ratios run
// high. The simulator supplies the paper-scale magnitudes.
type SimCombinedCost struct {
	Jobs     int
	Total    vclock.Duration
	MapTime  vclock.Duration // scan + map + task portion
	Reduce   vclock.Duration
	VsSingle float64
}

// Fig3Sim prices merged batches of 1..maxJobs wordcount jobs with the
// cost model (paper: +25.5% total at n=10).
func Fig3Sim(p Params, maxJobs int) ([]SimCombinedCost, error) {
	if maxJobs <= 0 {
		return nil, fmt.Errorf("experiments: Fig3Sim needs positive maxJobs, got %d", maxJobs)
	}
	var out []SimCombinedCost
	var base float64
	for n := 1; n <= maxJobs; n++ {
		env, err := NewEnv(WordcountGB, 64, p.Model)
		if err != nil {
			return nil, err
		}
		exec := sim.NewExecutor(env.Cluster, env.Store, p.Model)
		metas := workload.WordCountMetas(n, "input", 1, 1)
		var total, reduce vclock.Duration
		k := env.Plan.NumSegments()
		for seg := 0; seg < k; seg++ {
			r := scheduler.Round{
				Segment: seg,
				Blocks:  env.Plan.Blocks(seg),
				Jobs:    metas,
			}
			if seg == 0 {
				r.FreshJobs = 1
			}
			if seg == k-1 {
				for _, m := range metas {
					r.Completes = append(r.Completes, m.ID)
				}
			}
			d, err := exec.ExecRound(r)
			if err != nil {
				return nil, err
			}
			total += d
			reduce += vclock.Duration(float64(n) * p.Model.ReducePerRound)
		}
		if n == 1 {
			base = total.Seconds()
		}
		out = append(out, SimCombinedCost{
			Jobs:     n,
			Total:    total,
			MapTime:  total - reduce,
			Reduce:   reduce,
			VsSingle: total.Seconds() / base,
		})
	}
	return out, nil
}

func fig3Point(cfg Fig3Config, n int) (CombinedCost, error) {
	store := dfs.MustStore(Nodes, 1)
	if _, err := workload.AddTextFile(store, "corpus", cfg.Blocks, cfg.BlockSize, cfg.Seed); err != nil {
		return CombinedCost{}, err
	}
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, SlotsPerNode))

	prefixes := workload.DistinctPrefixes(n)
	jobs := make([]*mapreduce.Running, n)
	for i := 0; i < n; i++ {
		spec := workload.WordCountJob(fmt.Sprintf("wc-%d", i), "corpus", prefixes[i], cfg.NumReduce)
		job, err := mapreduce.NewRunning(spec)
		if err != nil {
			return CombinedCost{}, err
		}
		jobs[i] = job
	}
	f, err := store.File("corpus")
	if err != nil {
		return CombinedCost{}, err
	}

	start := time.Now()
	if _, err := engine.MapRound(f.Blocks(), jobs); err != nil {
		return CombinedCost{}, err
	}
	mapDone := time.Now()
	var mapTasks int64
	for _, job := range jobs {
		res, err := engine.Finish(job)
		if err != nil {
			return CombinedCost{}, err
		}
		mapTasks += res.Counters.Get(mapreduce.CounterMapTasks)
	}
	end := time.Now()

	return CombinedCost{
		Jobs:        n,
		Total:       end.Sub(start),
		MapPhase:    mapDone.Sub(start),
		ReducePhase: end.Sub(mapDone),
		BlockReads:  store.Stats().BlockReads,
		MapTasks:    mapTasks,
	}, nil
}
