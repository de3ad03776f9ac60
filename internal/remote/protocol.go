package remote

import "s3sched/internal/mapreduce"

// Wire types for the master↔worker RPC protocol (net/rpc over gob).

// JobRef names one job's executable parts for a worker's registry.
type JobRef struct {
	// Name identifies the job (for error messages and counters).
	Name string
	// Factory is the registry key; Param its argument.
	Factory string
	Param   string
	// NumReduce is the job's reduce partition count.
	NumReduce int
}

// width is the job's partition count; an unset NumReduce means one.
func (r JobRef) width() int { return max(r.NumReduce, 1) }

// MapTaskArgs asks a worker to scan one of its local blocks once and
// feed it to every job in Jobs — one merged (shared-scan) map task.
type MapTaskArgs struct {
	File       string
	BlockIndex int
	Jobs       []JobRef
	// Corr is the master-assigned correlation id ("r<round>.m<block>"),
	// echoed into the worker's trace so both sides of the RPC can be
	// stitched together. Empty when the master traces nothing.
	Corr string
}

// MapTaskReply carries the shuffled output: PerJob[i][p] is the slice
// of records job i emitted into reduce partition p.
type MapTaskReply struct {
	PerJob       [][][]mapreduce.KV
	BytesScanned int64
}

// ReduceTaskArgs asks a worker to reduce one partition of one job.
type ReduceTaskArgs struct {
	Job       JobRef
	Partition int
	Records   []mapreduce.KV
	// Corr is the master-assigned correlation id ("j<job>.p<part>").
	Corr string
}

// ReduceTaskReply carries the partition's reduced output.
type ReduceTaskReply struct {
	Output []mapreduce.KV
}

// InstallFileArgs ships a derived file — a finished DAG stage's
// materialized reduce output — to a worker's local store, so later map
// tasks can scan it like any generated corpus file. Unlike the seeded
// corpus, derived bytes cannot be regenerated locally: they are pushed
// once to every live worker at materialization time and replayed to
// late (re)registrants during the registration handshake.
type InstallFileArgs struct {
	Name string
	// BlockSize is the uniform block size; every block in Blocks is
	// exactly this long (StoreResult pads the last one).
	BlockSize int64
	Blocks    [][]byte
}

// InstallFileReply is empty; installation is idempotent — a worker
// already holding Name with the same geometry acks without change.
type InstallFileReply struct{}

// StatsArgs is empty; StatsReply reports a worker's lifetime counters.
type StatsArgs struct{}

// StatsReply is one worker's physical-work ledger — the same
// fault/cache accounting a local run's store reports, so remote and
// local runs fold into identical metrics. The cache fields stay zero
// on workers running without a block cache.
type StatsReply struct {
	// Worker is the reporting worker's identity, filled master-side.
	Worker       string
	BlockReads   int64
	BytesScanned int64
	// FailedReads counts read attempts failed by the fault hook or the
	// block source.
	FailedReads int64
	MapTasks    int64
	ReduceTasks int64
	CacheHits   int64
	CacheMisses int64
	// CacheEvictions counts blocks discarded to fit the cache budget;
	// CachePrefetches/CachePrefetchFailed count readahead loads issued
	// and failed; CacheBytes is the cached footprint at poll time and
	// CachePinnedBytes its pin-protected part.
	CacheEvictions      int64
	CachePrefetches     int64
	CachePrefetchFailed int64
	CacheBytes          int64
	CachePinnedBytes    int64
}
