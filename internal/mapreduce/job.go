package mapreduce

import (
	"fmt"
	"sync"

	"s3sched/internal/dfs"
)

// Mapper transforms one input block into intermediate records. A
// mapper must be safe for concurrent use: the engine invokes it from
// several map slots at once.
type Mapper interface {
	Map(block dfs.BlockID, data []byte, emit Emit) error
}

// Reducer merges all intermediate values sharing a key. Reducers (and
// combiners, which share the signature) must be safe for concurrent
// use across keys/partitions.
type Reducer interface {
	Reduce(key string, values []string, emit Emit) error
}

// Folder is the optional second contract of a combiner: it absorbs a
// key's values one at a time into a running int64 — a sum, a count, a
// minimum — where Reduce needs them all at once. Only a combiner whose
// result does not depend on the order of a key's values may implement
// it, the class Running.Compact already demands. The map task then
// combines while it maps, keeping one number per distinct key; a
// combiner that is no Folder has its values buffered and is handed
// them sorted, as ever. The two must agree: for any values, Unfold of
// their fold emits the records Reduce emits for them.
type Folder interface {
	Reducer
	// Fold returns acc with value absorbed; acc is 0 at a key's first
	// value. An error fails the task.
	Fold(key string, acc int64, value string) (int64, error)
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

// Running is the engine-side state of a job in flight: the shuffle
// space its map tasks fill and the counters they charge. One Running
// may receive map output across many rounds (S^3 sub-jobs) before
// Finish is called.
type Running struct {
	Spec     JobSpec
	Counters *Counters

	mu         sync.Mutex
	partitions [][]KV // intermediate records per reduce partition
	finished   bool
}

// NewRunning prepares engine-side state for a job.
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

// addIntermediate appends shuffled records into the job's partitions.
// It fails if the job has already been finished: a scheduler that maps
// after reduce has violated the sub-job protocol, and the error is
// reported from the offending round rather than crashing worker
// goroutines.
func (r *Running) addIntermediate(byPartition [][]KV) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return fmt.Errorf("mapreduce: job %q received map output after Finish", r.Spec.Name)
	}
	for p, kvs := range byPartition {
		r.partitions[p] = append(r.partitions[p], kvs...)
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
	r.mu.Lock()
	defer r.mu.Unlock()
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
		compacted := make([]KV, 0, len(table.groups))
		err := table.fold(func(kv KV) { compacted = append(compacted, kv) })
		if err != nil {
			return fmt.Errorf("mapreduce: compacting job %q partition %d: %w", r.Spec.Name, p, err)
		}
		r.partitions[p] = compacted
	}
	return nil
}

// Seal marks the job finished and hands back its remaining shuffle
// records. This is the shuffle-commit of a job's *last* round under
// staged execution: no further map output may arrive, and the caller
// runs the final reduce over the sealed snapshot with
// Engine.FinishDrained — possibly concurrently with later rounds'
// maps for other jobs.
func (r *Running) Seal() [][]KV {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		panic(fmt.Sprintf("mapreduce: job %q finished twice", r.Spec.Name))
	}
	r.finished = true
	parts := r.partitions
	r.partitions = nil
	return parts
}

// Result is a completed job's output.
type Result struct {
	Name     string
	Output   []KV // sorted by key then value
	Counters *Counters
}
