package mapreduce

import (
	"fmt"
	"slices"

	"s3sched/internal/dfs"
)

// Single-task primitives, exported so other execution substrates
// (internal/remote's distributed workers) run exactly the same task
// logic as the in-process engine.

// MapBlockForJob executes one map task: run mapper over the block's
// data, apply the optional combiner, and split the output into width
// reduce partitions.
func MapBlockForJob(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) ([][]KV, error) {
	if mapper == nil {
		return nil, fmt.Errorf("mapreduce: MapBlockForJob needs a mapper")
	}
	if width <= 0 {
		return nil, fmt.Errorf("mapreduce: partition width must be positive, got %d", width)
	}
	parts, _, err := mapTask(block, data, mapper, combiner, width)
	return parts, err
}

// mapTask is the one map-task body: the engine's rounds and the remote
// workers (through MapBlockForJob) both run it. Without a combiner the
// mapper emits straight into the partition slices; with one it emits
// into a combine table — folding as it goes when the combiner is a
// Folder — whose groups are partitioned at the end: record for record
// what sorting, grouping and combining the raw output produces.
func mapTask(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) ([][]KV, taskCounts, error) {
	parts := make([][]KV, width)
	shuffle := func(kv KV) {
		p := partitionOf(kv.Key, width)
		parts[p] = append(parts[p], kv)
	}
	table := newCombineTable(combiner) // stays empty without a combiner
	counts := taskCounts{inputBytes: int64(len(data))}
	err := mapper.Map(block, data, func(kv KV) {
		counts.outputRecords++
		counts.outputBytes += int64(len(kv.Key) + len(kv.Value))
		if combiner == nil {
			shuffle(kv)
		} else {
			table.add(kv)
		}
	})
	if err != nil {
		return nil, taskCounts{}, err
	}
	if len(table.groups) > 0 { // a combiner, and something for it to combine
		counts.combinerApplied = true
		err := table.fold(func(kv KV) {
			counts.combineRecords++
			shuffle(kv)
		})
		if err != nil {
			return nil, taskCounts{}, fmt.Errorf("combiner: %w", err)
		}
	}
	return parts, counts, nil
}

// ReducePartition executes one reduce task: sort the partition's
// records, group by key, and reduce. A nil reducer yields the sorted
// records unchanged (map-only jobs).
func ReducePartition(records []KV, reducer Reducer) ([]KV, error) {
	return ReduceInPlace(slices.Clone(records), reducer)
}

// ReduceInPlace is ReducePartition for a caller that owns records: it
// sorts them where they are.
func ReduceInPlace(records []KV, reducer Reducer) ([]KV, error) {
	sortKVs(records)
	if reducer == nil {
		return records, nil
	}
	var out []KV
	err := groupByKey(records, func(key string, values []string) error {
		return reducer.Reduce(key, values, func(kv KV) { out = append(out, kv) })
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MergeSorted merges per-partition reduce outputs into one new slice
// sorted by (key, value). Runs already in that order — what a reduce
// task emits — merge pairwise, linear in records; others are sorted first.
func MergeSorted(partitions [][]KV) []KV {
	runs := make([][]KV, 0, len(partitions))
	for _, run := range partitions {
		if !slices.IsSortedFunc(run, compareKV) {
			run = slices.Clone(run)
			sortKVs(run)
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return slices.Clone(runs[0])
	}
	for len(runs) > 1 { // first in, first merged: log k passes over the records
		runs = append(runs[2:], mergeTwo(runs[0], runs[1]))
	}
	return runs[0]
}

func mergeTwo(a, b []KV) []KV {
	out := make([]KV, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if compareKV(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}
