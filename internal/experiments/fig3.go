package experiments

import (
	"fmt"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
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
// Here the experiment runs the deployed master and workers in-process
// (remote.StartLocal) over generated text, one merged round per point,
// so the overhead of feeding one scan to n mappers is measured, not
// modeled.

// CombinedCost is one Figure 3 data point.
type CombinedCost struct {
	Jobs int
	// Total is the wall time of the merged round (map + reduce).
	Total time.Duration
	// MapPhase and ReducePhase are the round's phases as the master
	// timed them (s3_wall_{map,reduce}_phase_seconds).
	MapPhase    time.Duration
	ReducePhase time.Duration
	// BlockReads is physical scans issued — constant in n.
	BlockReads int64
	// MapTasks is the (block, job) map units the workers ran — n × blocks.
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

// fig3Workers is how many in-process workers map a Figure 3 round: the
// paper's 40 nodes, scaled down with the corpus.
const fig3Workers = 4

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
// cost model at full paper scale (2560 blocks, 40 slots). The
// in-process cluster (Fig3) demonstrates the mechanism — constant
// physical scans, growth far below n-fold — but its in-memory "I/O" is
// much cheaper relative to map work than the authors' disks, so its
// ratios run high. The simulator supplies the paper-scale magnitudes.
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
	wf, err := Fig4Workload("a", p)
	if err != nil {
		return nil, err
	}
	env, err := newCellEnv(wf)
	if err != nil {
		return nil, err
	}
	var out []SimCombinedCost
	var base float64
	for n := 1; n <= maxJobs; n++ {
		exec := sim.NewExecutor(env.cluster, env.store, env.model)
		// n of Figure 4(a)'s jobs, weights defaulted as a scheduler
		// would on submission.
		var metas []scheduler.JobMeta
		for _, a := range arrivingAt(wf, make([]vclock.Time, n)).Entries() {
			metas = append(metas, a.Job.Normalized())
		}
		var total, reduce vclock.Duration
		k := env.plans[0].NumSegments()
		for seg := 0; seg < k; seg++ {
			r := scheduler.Round{
				Segment: seg,
				Blocks:  env.plans[0].Blocks(seg),
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
			reduce += vclock.Duration(float64(n) * env.model.ReducePerRound)
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

// fig3Point runs n wordcount jobs as one round over every block of the
// corpus, on a fresh cluster.
func fig3Point(cfg Fig3Config, n int) (CombinedCost, error) {
	stores := make([]*dfs.Store, fig3Workers)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", cfg.Blocks, cfg.BlockSize, cfg.Seed); err != nil {
			return CombinedCost{}, err
		}
	}
	round := scheduler.Round{Blocks: make([]dfs.BlockID, cfg.Blocks)}
	for b := range round.Blocks {
		round.Blocks[b] = dfs.BlockID{File: "corpus", Index: b}
	}
	jobs := make(map[scheduler.JobID]remote.JobRef, n)
	for i, prefix := range workload.DistinctPrefixes(n) {
		id := scheduler.JobID(i + 1)
		jobs[id] = remote.JobRef{Name: fmt.Sprintf("wc-%d", i), Factory: "wordcount", Param: prefix, NumReduce: cfg.NumReduce}
		round.Jobs = append(round.Jobs, scheduler.JobMeta{ID: id, File: "corpus"})
		round.Completes = append(round.Completes, id)
	}
	cluster, err := remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
	if err != nil {
		return CombinedCost{}, err
	}
	defer cluster.Close()
	reg := metrics.NewRegistry()
	cluster.SetRegistry(reg)

	start := time.Now()
	if _, err := cluster.ExecRound(round); err != nil {
		return CombinedCost{}, err
	}
	point := CombinedCost{Jobs: n, Total: time.Since(start)}
	phase := func(name string) time.Duration {
		sum := reg.Histogram("s3_wall_"+name+"_phase_seconds", "", nil).Snapshot().Sum
		return time.Duration(sum * float64(time.Second))
	}
	point.MapPhase, point.ReducePhase = phase("map"), phase("reduce")
	stats, err := cluster.WorkerStats()
	if err != nil {
		return CombinedCost{}, err
	}
	for _, st := range stats {
		point.BlockReads += st.BlockReads
		point.MapTasks += st.MapTasks
	}
	return point, nil
}
