package mapreduce

import (
	"fmt"

	"s3sched/internal/dfs"
)

// Mapper transforms one input block into intermediate records. A
// mapper must be safe for concurrent use: a worker invokes it from
// several map slots at once.
type Mapper interface {
	Map(block dfs.BlockID, data []byte, emit Emit) error
}

// InputRecordCounter is an optional interface a Mapper can implement
// to report how many logical records (lines, tuples, …) a block
// contains, so MapBlock can charge map.input.records the way Hadoop
// does. Without it only byte-level input accounting is available.
type InputRecordCounter interface {
	CountInputRecords(data []byte) int64
}

// Reducer merges all intermediate values sharing a key. Reducers (and
// combiners, which share the signature) must be safe for concurrent
// use across keys/partitions.
type Reducer interface {
	Reduce(key string, values []string, emit Emit) error
}

// Folder is the optional second contract of a combiner: it absorbs a
// key's values as they come into a running int64 — a sum, a count, a
// minimum — where Reduce needs them all at once. Only a combiner whose
// result does not depend on the order of a key's values may implement
// it, the class Running.Compact already demands. The map task then
// combines while it maps, keeping one number per distinct key; a
// combiner that is no Folder has its values buffered and is handed
// them sorted, as ever. The two must agree: for any values, Unfold of
// their fold emits the records Reduce emits for them.
type Folder interface {
	Reducer
	// Fold returns acc with n >= 1 copies of value absorbed, as n calls of
	// one would; acc is 0 at a key's first value. An error fails the task.
	Fold(key string, acc int64, value string, n int) (int64, error)
	// Unfold emits the combined records of a key whose values folded to acc.
	Unfold(key string, acc int64, emit Emit)
}

// SharedMapper is the optional second contract of a Mapper: one pass over
// a block's records serves several mappers — the jobs of a merged map
// task — so each record is parsed once for all of them. SharesPass says
// which mappers may join a pass this one leads; MapShared is called on
// the first of them and handed them all. emit(job, kv, n) stands for n
// emits of kv to the job at that position in mappers (n >= 1); a record
// several jobs keep may be emitted to each as the same KV, strings being
// immutable. An error fails every job of the pass. For one mapper it
// emits what Map does, in any order.
type SharedMapper interface {
	Mapper
	SharesPass(other Mapper) bool
	MapShared(block dfs.BlockID, data []byte, mappers []Mapper, emit func(job int, kv KV, n int)) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(block dfs.BlockID, data []byte, emit Emit) error

// Map calls f.
func (f MapperFunc) Map(block dfs.BlockID, data []byte, emit Emit) error {
	return f(block, data, emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []string, emit Emit) error

// Reduce calls f.
func (f ReducerFunc) Reduce(key string, values []string, emit Emit) error {
	return f(key, values, emit)
}

// JobSpec describes one MapReduce job.
type JobSpec struct {
	Name   string
	File   string // input file name in the dfs.Store
	Mapper Mapper
	// Reducer merges intermediate records. If nil the job is map-only
	// and the intermediate records are the output.
	Reducer Reducer
	// Combiner, if non-nil, is applied to each map task's output before
	// shuffle (classic wordcount local aggregation).
	Combiner Reducer
	// NumReduce is the number of reduce partitions (default 1).
	NumReduce int
}

// Validate reports whether the spec is executable.
func (s *JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("mapreduce: job has no name")
	}
	if s.File == "" {
		return fmt.Errorf("mapreduce: job %q has no input file", s.Name)
	}
	if s.Mapper == nil {
		return fmt.Errorf("mapreduce: job %q has no mapper", s.Name)
	}
	if s.NumReduce < 0 {
		return fmt.Errorf("mapreduce: job %q has negative NumReduce", s.Name)
	}
	return nil
}

func (s *JobSpec) reduceWidth() int { return max(s.NumReduce, 1) }

// Running is one job run sequentially in this process: the shuffle
// space its map tasks fill and the counters they charge. One Running
// may receive map output across many rounds (S^3 sub-jobs) before
// Finish is called. It is the reference the cluster's workers are held
// to, and serves what needs no cluster: a job's solo output and its
// Hadoop-style counters. It is not safe for concurrent use.
type Running struct {
	Spec     JobSpec
	Counters *Counters

	partitions [][]KV // intermediate records per reduce partition
	finished   bool
}

// NewRunning prepares the state of a job about to run.
func NewRunning(spec JobSpec) (*Running, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Running{
		Spec:       spec,
		Counters:   NewCounters(),
		partitions: make([][]KV, spec.reduceWidth()),
	}, nil
}

// RunJob runs spec alone over every block of its file, in block order,
// then reduces: the sequential reference for a job's output and
// counters.
func RunJob(store *dfs.Store, spec JobSpec) (*Result, error) {
	run, err := NewRunning(spec)
	if err != nil {
		return nil, err
	}
	f, err := store.File(spec.File)
	if err != nil {
		return nil, err
	}
	for _, b := range f.Blocks() {
		data, err := store.ReadBlock(b)
		if err != nil {
			return nil, err
		}
		if err := run.MapBlock(b, data); err != nil {
			return nil, err
		}
	}
	return run.Finish()
}

// MapBlock runs the job's map task over one block — map, combine,
// partition, as a worker's task does — charges its counters and adds
// its output to the job's shuffle space. It fails once the job has
// finished: a scheduler that maps after reduce has broken the sub-job
// protocol.
func (r *Running) MapBlock(block dfs.BlockID, data []byte) error {
	if r.finished {
		return fmt.Errorf("mapreduce: job %q received map output after Finish", r.Spec.Name)
	}
	var err error
	mapTask(block, data, []MapJob{{r.Spec.Mapper, r.Spec.Combiner, r.Spec.reduceWidth()}}, func(_ int, t *jobTask) {
		if err = t.err; err != nil {
			return
		}
		c := r.Counters
		c.Add(CounterMapTasks, 1)
		c.Add(CounterMapInputBytes, t.counts.inputBytes)
		if rc, ok := r.Spec.Mapper.(InputRecordCounter); ok {
			if n := rc.CountInputRecords(data); n > 0 {
				c.Add(CounterMapInputRecords, n)
			}
		}
		c.Add(CounterMapOutputRecords, t.counts.outputRecords)
		c.Add(CounterMapOutputBytes, t.counts.outputBytes)
		if t.counts.combinerApplied {
			c.Add(CounterCombineOutRecords, t.counts.combineRecords)
		}
		for p, kvs := range t.parts {
			r.partitions[p] = append(r.partitions[p], kvs...)
		}
	})
	if err != nil {
		return fmt.Errorf("job %q block %v: %w", r.Spec.Name, block, err)
	}
	return nil
}

// Compact folds the job's accumulated intermediate records through a
// combiner, partition by partition, replacing many records per key
// with one partial aggregate. This is the §V-G output-collection
// optimization: a sub-job's partial results are aggregated as they
// are produced, so the state carried between rounds stays small and
// the final reduce starts from near-finished values. Compact preserves
// reduce semantics only for combiners that are associative and
// commutative over their value stream (e.g. sums, counts, min/max).
func (r *Running) Compact(combiner Reducer) error {
	if combiner == nil {
		return fmt.Errorf("mapreduce: Compact needs a combiner")
	}
	if r.finished {
		return fmt.Errorf("mapreduce: job %q compacted after Finish", r.Spec.Name)
	}
	for p, records := range r.partitions {
		if len(records) == 0 {
			continue
		}
		table := newCombineTable(combiner)
		for _, kv := range records {
			table.add(kv, 1)
		}
		compacted := make([][]KV, 1)
		if err := table.fold(compacted); err != nil {
			return fmt.Errorf("mapreduce: compacting job %q partition %d: %w", r.Spec.Name, p, err)
		}
		r.partitions[p] = compacted[0]
	}
	return nil
}

// Finish runs the job's reduce phase — one reduce task per partition,
// in order — over everything its map tasks produced, and returns the
// completed result, the partitions' outputs merged into one run. A job
// finishes exactly once, after its last map task; a second Finish
// panics.
func (r *Running) Finish() (*Result, error) {
	parts := r.seal()
	outputs := make([][]KV, len(parts))
	for p, records := range parts {
		r.Counters.Add(CounterReduceInputRecords, int64(len(records)))
		out, err := ReduceInPlace(records, r.Spec.Reducer)
		if err != nil {
			return nil, fmt.Errorf("job %q partition %d: %w", r.Spec.Name, p, err)
		}
		outputs[p] = out
	}
	merged := MergeSorted(outputs)
	r.Counters.Add(CounterReduceTasks, int64(len(parts)))
	r.Counters.Add(CounterReduceOutRecords, int64(len(merged)))
	r.Counters.Add(CounterReduceOutBytes, kvBytes(merged))
	return &Result{Name: r.Spec.Name, Output: merged, Counters: r.Counters}, nil
}

// seal marks the job finished and hands back its shuffle records.
func (r *Running) seal() [][]KV {
	if r.finished {
		panic(fmt.Sprintf("mapreduce: job %q finished twice", r.Spec.Name))
	}
	r.finished = true
	parts := r.partitions
	r.partitions = nil
	return parts
}

// kvBytes returns the payload size of records (keys + values).
func kvBytes(kvs []KV) int64 {
	var n int64
	for _, kv := range kvs {
		n += int64(len(kv.Key) + len(kv.Value))
	}
	return n
}

// Result is a completed job's output.
type Result struct {
	Name     string
	Output   []KV // sorted by key then value
	Counters *Counters
}
