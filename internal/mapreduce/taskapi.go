package mapreduce

import (
	"fmt"
	"slices"
	"sync"

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
func MapBlockForJob(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) (parts [][]KV, err error) {
	mapTask(block, data, []MapJob{{mapper, combiner, width}}, func(_ int, t *jobTask) { parts, err = t.parts, t.err })
	return parts, err
}

// MapBlockForJobs executes one pass of a merged map task over one block
// for jobs that share it — one group of MapGroups — every job's output
// combined and partitioned as MapBlockForJob does it, into parts[j] and
// errs[j]. A job that failed has no partitions; jobs that are no one
// group all fail.
func MapBlockForJobs(block dfs.BlockID, data []byte, jobs []MapJob, parts [][][]KV, errs []error) {
	mapTask(block, data, jobs, func(j int, t *jobTask) { parts[j], errs[j] = t.parts, t.err })
}

// MapGroups splits positions 0..len(jobs)-1 into the groups one pass over
// a block serves, ordered by their first position: a job whose mapper is
// a SharedMapper joins the first group whose head's SharesPass admits it,
// any other job is one.
func MapGroups(jobs []MapJob) [][]int {
	groups := make([][]int, 0, len(jobs))
next:
	for j, job := range jobs {
		for g, group := range groups {
			if joins(jobs[group[0]], job) {
				groups[g] = append(group, j)
				continue next
			}
		}
		groups = append(groups, []int{j})
	}
	return groups
}

// joins reports whether job may join the pass head leads.
func joins(head, job MapJob) bool {
	shared, ok := head.Mapper.(SharedMapper)
	_, sharing := job.Mapper.(SharedMapper)
	return ok && sharing && head.Width > 0 && job.Width > 0 && shared.SharesPass(job.Mapper)
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

// passScratch is what a map pass keeps for the next: a task for each
// job, its combine table emptied, and the mappers a SharedMapper is
// handed. A pass over a small block makes little else.
type passScratch struct {
	tasks   []jobTask
	mappers []Mapper
}

var passScratches = sync.Pool{New: func() any { return new(passScratch) }}

// mapTask is the one map-task body, run by Running.MapBlock and the
// remote workers (through MapBlockForJobs): one pass over the block for
// jobs that share it, job j's part handed to done(j, t) before its
// scratch goes back to passScratches.
func mapTask(block dfs.BlockID, data []byte, jobs []MapJob, done func(j int, t *jobTask)) {
	if len(jobs) == 0 {
		return
	}
	s := passScratches.Get().(*passScratch)
	if len(s.tasks) < len(jobs) {
		s.tasks = append(s.tasks, make([]jobTask, len(jobs)-len(s.tasks))...)
	}
	tasks := s.tasks[:len(jobs)]
	s.mapPass(block, data, jobs, tasks)
	for j := range tasks {
		done(j, &tasks[j])
		tasks[j].table.empty(tasks[j].err != nil)
		tasks[j] = jobTask{table: tasks[j].table}
	}
	clear(s.mappers)
	s.mappers = s.mappers[:0]
	passScratches.Put(s)
}

// mapPass is one pass over the block for jobs: MapShared for a group of
// SharedMappers, Map for a job alone. A job's records go straight into
// its partition slices, or with a combiner into its combine table —
// folding as they come when the combiner is a Folder — whose groups are
// partitioned at the end, record for record what sorting, grouping and
// combining the raw output produces. A mapper error fails every job of
// the pass, a combiner's only its own.
func (s *passScratch) mapPass(block dfs.BlockID, data []byte, jobs []MapJob, tasks []jobTask) {
	head := jobs[0]
	var err error
	if head.Mapper == nil || head.Width <= 0 {
		err = fmt.Errorf("mapreduce: a map task needs a mapper and a positive partition width, got %T and %d", head.Mapper, head.Width)
	} else if i := slices.IndexFunc(jobs[1:], func(job MapJob) bool { return !joins(head, job) }); i >= 0 {
		err = fmt.Errorf("mapreduce: job %d (%T) cannot share the pass of job 0 (%T)", i+1, jobs[i+1].Mapper, head.Mapper)
	}
	if err != nil {
		for j := range tasks {
			tasks[j].err = err
		}
		return
	}
	for j, job := range jobs {
		t := &tasks[j]
		t.MapJob, t.parts, t.counts = job, make([][]KV, job.Width), taskCounts{inputBytes: int64(len(data))}
		t.table.reset(job.Combiner)
	}
	if shared, ok := head.Mapper.(SharedMapper); ok {
		for _, job := range jobs {
			s.mappers = append(s.mappers, job.Mapper)
		}
		err = shared.MapShared(block, data, s.mappers, func(j int, kv KV, n int) { tasks[j].add(kv, n) })
	} else {
		t := &tasks[0]
		err = head.Mapper.Map(block, data, func(kv KV) { t.add(kv, 1) })
	}
	for j := range tasks {
		t := &tasks[j]
		if t.err = err; err == nil && len(t.table.groups) > 0 { // a combiner, and something for it to combine
			t.counts.combinerApplied = true
			if err := t.table.fold(t.parts); err != nil {
				t.err = fmt.Errorf("combiner: %w", err)
			}
			for _, run := range t.parts {
				t.counts.combineRecords += int64(len(run))
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
