package mapreduce

import (
	"fmt"
	"slices"

	"s3sched/internal/dfs"
)

// Single-task primitives, exported so internal/remote's workers run
// exactly the task logic of the sequential reference (Running).

// MapJob is one job's part of a map task: its mapper and combiner, and
// the number of reduce partitions its output is split into.
type MapJob struct {
	Mapper   Mapper
	Combiner Reducer
	Width    int
}

// MapBlockForJob executes one map task: run mapper over the block's
// data, apply the optional combiner, and split the output into width
// reduce partitions.
func MapBlockForJob(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) ([][]KV, error) {
	t := mapTask(block, data, []MapJob{{mapper, combiner, width}})[0]
	return t.parts, t.err
}

// MapBlockForJobs executes a merged map task over one block: one pass
// for each group of MapGroups, every job's output combined and
// partitioned as MapBlockForJob does it. parts[j] and errs[j] are job
// j's; a job that failed has no partitions.
func MapBlockForJobs(block dfs.BlockID, data []byte, jobs []MapJob) (parts [][][]KV, errs []error) {
	parts, errs = make([][][]KV, len(jobs)), make([]error, len(jobs))
	for j, t := range mapTask(block, data, jobs) {
		parts[j], errs[j] = t.parts, t.err
	}
	return parts, errs
}

// MapGroups splits positions 0..len(jobs)-1 into the groups one pass over
// a block serves, ordered by their first position: a job whose mapper is
// a SharedMapper joins the first group whose head's SharesPass admits it,
// any other job is one.
func MapGroups(jobs []MapJob) [][]int {
	groups := make([][]int, 0, len(jobs))
next:
	for j, job := range jobs {
		if _, ok := job.Mapper.(SharedMapper); ok && job.Width > 0 {
			for g, group := range groups {
				if head, ok := jobs[group[0]].Mapper.(SharedMapper); ok && jobs[group[0]].Width > 0 && head.SharesPass(job.Mapper) {
					groups[g] = append(group, j)
					continue next
				}
			}
		}
		groups = append(groups, []int{j})
	}
	return groups
}

// taskCounts carries one map task's counter deltas for one job.
type taskCounts struct {
	inputBytes      int64
	outputRecords   int64
	outputBytes     int64
	combineRecords  int64
	combinerApplied bool
}

// jobTask is one job's part of a map task as it runs: the partitions and
// combine table its records fill, its counters, and its error.
type jobTask struct {
	MapJob
	parts  [][]KV
	table  combineTable // stays empty without a combiner
	counts taskCounts
	err    error
}

func (t *jobTask) shuffle(kv KV) {
	p := partitionOf(kv.Key, t.Width)
	t.parts[p] = append(t.parts[p], kv)
}

// add takes n emits of kv, charged and kept as n separate emits would
// be: n values for the combine table, or n copies in the partition.
func (t *jobTask) add(kv KV, n int) {
	t.counts.outputRecords += int64(n)
	t.counts.outputBytes += int64(n) * int64(len(kv.Key)+len(kv.Value))
	if t.Combiner != nil {
		t.table.add(kv, n)
		return
	}
	p := partitionOf(kv.Key, t.Width)
	for ; n > 0; n-- {
		t.parts[p] = append(t.parts[p], kv)
	}
}

// mapTask is the one map-task body, run by Running.MapBlock and (through
// MapBlockForJobs) the remote workers: tasks[j] is job j's part.
func mapTask(block dfs.BlockID, data []byte, jobs []MapJob) []jobTask {
	tasks := make([]jobTask, len(jobs))
	for _, group := range MapGroups(jobs) {
		mapPass(block, data, jobs, group, tasks)
	}
	return tasks
}

// mapPass is one pass over the block for the jobs of one group of
// MapGroups: MapShared for a SharedMapper's group, Map for any other job.
// A job's records go straight into its partition slices, or with a
// combiner into its combine table — folding as they come when the
// combiner is a Folder — whose groups are partitioned at the end, record
// for record what sorting, grouping and combining the raw output produces.
// A mapper error fails every job of the pass, a combiner's only its own.
func mapPass(block dfs.BlockID, data []byte, jobs []MapJob, group []int, tasks []jobTask) {
	head := jobs[group[0]]
	if head.Mapper == nil || head.Width <= 0 { // MapGroups leaves such a job alone
		tasks[group[0]].err = fmt.Errorf("mapreduce: a map task needs a mapper and a positive partition width, got %T and %d", head.Mapper, head.Width)
		return
	}
	for _, j := range group {
		tasks[j] = jobTask{MapJob: jobs[j], parts: make([][]KV, jobs[j].Width), table: newCombineTable(jobs[j].Combiner), counts: taskCounts{inputBytes: int64(len(data))}}
	}
	var err error
	if shared, ok := head.Mapper.(SharedMapper); ok {
		mappers := make([]Mapper, len(group))
		for i, j := range group {
			mappers[i] = jobs[j].Mapper
		}
		err = shared.MapShared(block, data, mappers, func(i int, kv KV, n int) { tasks[group[i]].add(kv, n) })
	} else {
		t := &tasks[group[0]]
		err = head.Mapper.Map(block, data, func(kv KV) { t.add(kv, 1) })
	}
	for _, j := range group {
		t := &tasks[j]
		if t.err = err; err == nil && len(t.table.groups) > 0 { // a combiner, and something for it to combine
			t.counts.combinerApplied = true
			if err := t.table.fold(func(kv KV) {
				t.counts.combineRecords++
				t.shuffle(kv)
			}); err != nil {
				t.err = fmt.Errorf("combiner: %w", err)
			}
		}
		if t.err != nil {
			t.parts, t.counts = nil, taskCounts{}
		}
	}
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
