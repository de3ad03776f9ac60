package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/workload"
)

// genBlocks regenerates a cluster file's blocks the way every worker does
// (cmd/s3cluster's workerStore): from the shared seed, block by block.
func genBlocks(file string, blocks int, blockSize, seed int64) [][]byte {
	gen := workload.NewTextGen(seed).Block
	if file == "lineitem" {
		gen = workload.NewLineitemGen(seed).Block
	}
	out := make([][]byte, blocks)
	for i := range out {
		out[i] = gen(i, blockSize)
	}
	return out
}

// reference is the single-threaded oracle: one job's whole map, combine,
// partition, reduce and merge over the same blocks, through the same
// public task functions the workers call. Its output digest is what the
// cluster's output must match, and its speed is the seq.* baseline.
type reference struct {
	s      spec
	blocks [][]byte
	reg    *remote.Registry

	digests map[string]string
	seconds map[string]float64 // wall time of each parameter's pass
}

func newReference(s spec, seed int64) *reference {
	return &reference{
		s:       s,
		blocks:  genBlocks(s.File, s.Blocks, s.BlockSize, seed),
		reg:     remote.NewStandardRegistry(),
		digests: make(map[string]string),
		seconds: make(map[string]float64),
	}
}

func (r *reference) digest(param string) (string, error) {
	if d, ok := r.digests[param]; ok {
		return d, nil
	}
	start := time.Now()
	out, err := seqJob(r.reg, r.s.Factory, param, r.s.File, r.s.NumReduce, r.blocks)
	if err != nil {
		return "", err
	}
	r.seconds[param] = time.Since(start).Seconds()
	r.digests[param] = digestKVs(out)
	return r.digests[param], nil
}

// mbPerSecond is the file size over the median pass time seen so far.
func (r *reference) mbPerSecond() float64 {
	var all []float64
	for _, s := range r.seconds {
		all = append(all, s)
	}
	return ratio(r.s.fileMB(), median(all))
}

func seqJob(reg *remote.Registry, factory, param, file string, numReduce int, blocks [][]byte) ([]mapreduce.KV, error) {
	mapper, reducer, combiner, err := reg.Build(factory, param)
	if err != nil {
		return nil, err
	}
	parts := make([][]mapreduce.KV, numReduce)
	for i, data := range blocks {
		ps, err := mapreduce.MapBlockForJob(dfs.BlockID{File: file, Index: i}, data, mapper, combiner, numReduce)
		if err != nil {
			return nil, fmt.Errorf("reference %s(%s) block %d: %w", factory, param, i, err)
		}
		for p := range ps {
			parts[p] = append(parts[p], ps[p]...)
		}
	}
	outs := make([][]mapreduce.KV, numReduce)
	for p := range parts {
		if outs[p], err = mapreduce.ReducePartition(parts[p], reducer); err != nil {
			return nil, fmt.Errorf("reference %s(%s) partition %d: %w", factory, param, p, err)
		}
	}
	return mapreduce.MergeSorted(outs), nil
}

func digestKVs(kvs []mapreduce.KV) string {
	h := sha256.New()
	for _, kv := range kvs {
		// Length prefixes keep ("ab","c") and ("a","bc") apart.
		fmt.Fprintf(h, "%d:%s%d:%s", len(kv.Key), kv.Key, len(kv.Value), kv.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}
