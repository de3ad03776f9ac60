package experiments

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// DistributedScanSavings runs the shared-scan comparison on the real
// distributed substrate: workers serving map/reduce tasks over TCP,
// the master placing tasks locality-first. It reports the cluster-wide
// physical block reads under S^3 versus FIFO for the same job set —
// the distributed analogue of Figure 4's I/O story, measured rather
// than simulated.
type DistributedResult struct {
	Workers     int
	Jobs        int
	Blocks      int
	S3Reads     int64
	FIFOReads   int64
	S3Rounds    int
	FIFORounds  int
	OutputAgree bool // S3 and FIFO produced identical job outputs
}

// DistributedConfig scales the experiment.
type DistributedConfig struct {
	Workers   int
	Jobs      int
	Blocks    int
	BlockSize int64
	Seed      int64
}

// DefaultDistributedConfig returns a laptop-scale configuration.
func DefaultDistributedConfig() DistributedConfig {
	return DistributedConfig{Workers: 3, Jobs: 3, Blocks: 12, BlockSize: 2 << 10, Seed: 5}
}

// DistributedScanSavings executes the experiment.
func DistributedScanSavings(cfg DistributedConfig) (DistributedResult, error) {
	if cfg.Workers <= 0 || cfg.Jobs <= 0 || cfg.Blocks <= 0 || cfg.BlockSize <= 0 {
		return DistributedResult{}, fmt.Errorf("experiments: invalid distributed config %+v", cfg)
	}
	refs := make(map[scheduler.JobID]remote.JobRef, cfg.Jobs)
	prefixes := workload.DistinctPrefixes(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		refs[scheduler.JobID(i+1)] = remote.JobRef{
			Name:      fmt.Sprintf("wc-%s", prefixes[i]),
			Factory:   "wordcount",
			Param:     prefixes[i],
			NumReduce: 2,
		}
	}

	run := func(scheme SchemeSpec) (int64, int, map[scheduler.JobID]string, error) {
		reg := remote.NewStandardRegistry()
		var addrs []string
		var workers []*remote.Worker
		defer func() {
			for _, w := range workers {
				w.Close()
			}
		}()
		for i := 0; i < cfg.Workers; i++ {
			store := dfs.MustStore(1, 1)
			if _, err := workload.AddTextFile(store, "corpus", cfg.Blocks, cfg.BlockSize, cfg.Seed); err != nil {
				return 0, 0, nil, err
			}
			w := remote.NewWorker(store, reg)
			addr, err := w.Serve("127.0.0.1:0")
			if err != nil {
				return 0, 0, nil, err
			}
			workers = append(workers, w)
			addrs = append(addrs, addr)
		}
		master, err := remote.Dial(addrs, refs)
		if err != nil {
			return 0, 0, nil, err
		}
		defer master.Close()
		master.SetTimeScale(1e6)

		planStore := dfs.MustStore(cfg.Workers, 1)
		f, err := planStore.AddMetaFile("corpus", cfg.Blocks, cfg.BlockSize)
		if err != nil {
			return 0, 0, nil, err
		}
		plan, err := dfs.PlanSegments(f, cfg.Workers)
		if err != nil {
			return 0, 0, nil, err
		}
		sched, err := scheme.Make([]*dfs.SegmentPlan{plan}, nil)
		if err != nil {
			return 0, 0, nil, err
		}
		var arrivals []runtime.Arrival
		for id := range refs {
			arrivals = append(arrivals, runtime.Arrival{Job: scheduler.JobMeta{ID: id, File: "corpus"}, At: 0})
		}
		res, err := runtime.RunTrace(sched, master, arrivals, runtime.Options{})
		if err != nil {
			return 0, 0, nil, err
		}
		stats, err := master.WorkerStats()
		if err != nil {
			return 0, 0, nil, err
		}
		var reads int64
		for _, st := range stats {
			reads += st.BlockReads
		}
		outs := make(map[scheduler.JobID]string, cfg.Jobs)
		for id := range refs {
			kvs, err := master.JobOutput(id)
			if err != nil {
				return 0, 0, nil, err
			}
			outs[id] = fmt.Sprint(kvs)
		}
		return reads, res.Rounds, outs, nil
	}

	both := schemes("s3", "fifo")
	s3Reads, s3Rounds, s3Out, err := run(both[0])
	if err != nil {
		return DistributedResult{}, fmt.Errorf("experiments: distributed S3: %w", err)
	}
	fifoReads, fifoRounds, fifoOut, err := run(both[1])
	if err != nil {
		return DistributedResult{}, fmt.Errorf("experiments: distributed FIFO: %w", err)
	}
	agree := len(s3Out) == len(fifoOut)
	for id, out := range s3Out {
		if fifoOut[id] != out {
			agree = false
		}
	}
	return DistributedResult{
		Workers:     cfg.Workers,
		Jobs:        cfg.Jobs,
		Blocks:      cfg.Blocks,
		S3Reads:     s3Reads,
		FIFOReads:   fifoReads,
		S3Rounds:    s3Rounds,
		FIFORounds:  fifoRounds,
		OutputAgree: agree,
	}, nil
}
