package experiments

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// Table I (§V-B) profiles the normal wordcount workload: input size,
// map output records/size, reduce output records/size, and average
// processing time. This experiment runs one pattern-counting wordcount
// job with the sequential reference (mapreduce.RunJob: the task code
// the workers run) over generated text at a configurable scale and
// reports both the counters it charges and their linear projection to
// the paper's 160 GB input.

// Table1Config scales the workload-profile experiment.
type Table1Config struct {
	Blocks    int
	BlockSize int64
	NumReduce int
	Prefix    string
	Seed      int64
	// VocabSize sets the synthetic vocabulary (0 = the small built-in
	// demo list). Natural text has tens of thousands of distinct
	// words, which is what shapes Table I's reduce output.
	VocabSize int
}

// DefaultTable1Config returns a laptop-scale configuration (4 MiB of
// text over a 50k-word vocabulary, like natural English).
func DefaultTable1Config() Table1Config {
	return Table1Config{Blocks: 64, BlockSize: 64 << 10, NumReduce: 4, Prefix: "t", Seed: 1, VocabSize: 50000}
}

// Table1Result carries the measured profile and its projection.
type Table1Result struct {
	InputBytes        int64
	MapInputRecords   int64
	MapOutputRecords  int64
	MapOutputBytes    int64
	ReduceOutRecords  int64
	ReduceOutBytes    int64
	MapTasks          int64
	ReduceTasks       int64
	ScaleToPaper      float64 // 160 GB / measured input
	ProjMapOutRecords int64   // map output records at paper scale
	ProjRedOutBytes   int64   // reduce output bytes at paper scale
}

// Table1 runs the profile experiment.
func Table1(cfg Table1Config) (Table1Result, error) {
	if cfg.Blocks <= 0 || cfg.BlockSize <= 0 {
		return Table1Result{}, fmt.Errorf("experiments: invalid Table1 config %+v", cfg)
	}
	store := dfs.MustStore(Nodes, 1)
	var err error
	if cfg.VocabSize > 0 {
		_, err = workload.AddTextFileVocab(store, "corpus", cfg.Blocks, cfg.BlockSize, cfg.Seed, cfg.VocabSize)
	} else {
		_, err = workload.AddTextFile(store, "corpus", cfg.Blocks, cfg.BlockSize, cfg.Seed)
	}
	if err != nil {
		return Table1Result{}, err
	}
	res, err := mapreduce.RunJob(store, workload.WordCountJob("table1", "corpus", cfg.Prefix, cfg.NumReduce))
	if err != nil {
		return Table1Result{}, err
	}
	c := res.Counters
	inputBytes := c.Get(mapreduce.CounterMapInputBytes)
	scale := float64(int64(WordcountGB)<<30) / float64(inputBytes)
	out := Table1Result{
		InputBytes:       inputBytes,
		MapInputRecords:  c.Get(mapreduce.CounterMapInputRecords),
		MapOutputRecords: c.Get(mapreduce.CounterMapOutputRecords),
		MapOutputBytes:   c.Get(mapreduce.CounterMapOutputBytes),
		ReduceOutRecords: c.Get(mapreduce.CounterReduceOutRecords),
		ReduceOutBytes:   c.Get(mapreduce.CounterReduceOutBytes),
		MapTasks:         c.Get(mapreduce.CounterMapTasks),
		ReduceTasks:      c.Get(mapreduce.CounterReduceTasks),
		ScaleToPaper:     scale,
	}
	out.ProjMapOutRecords = int64(float64(out.MapOutputRecords) * scale)
	// Reduce output (distinct words) does not scale linearly with
	// input; project bytes conservatively as-is times a log-ish
	// factor is out of scope — report the measured value scaled by 1
	// (distinct vocabulary is fixed in the generator).
	out.ProjRedOutBytes = out.ReduceOutBytes
	return out, nil
}
