package remote

import (
	"fmt"
	"slices"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

// Messages of the master → worker and worker → worker task calls. Each
// crosses the task wire (transport.go) in a hand-written codec
// (codec.go); every record payload crosses as mapreduce frames
// (DESIGN.md, "Task wire" and "Shuffle wire format").

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

// MapTaskArgs asks a worker to scan some of its local blocks once each
// and feed every one to every job in Jobs — one merged (shared-scan) map
// task per round and worker: its share of the segment, or, for a repair,
// one block for one job.
type MapTaskArgs struct {
	File string
	// Blocks are the indices to scan, ascending.
	Blocks []int
	Jobs   []JobRef
	// Epoch and IDs (one per job) key what the task stashes: see stash.go.
	Epoch int64
	IDs   []scheduler.JobID
	// Done lists jobs of this epoch that finished since the worker last
	// answered a task: it drops what it stashed for them.
	Done []scheduler.JobID
	// Hint is the receiving worker's share of the scheduler's newest
	// dfs.ScanHint for File: two counted lists of block indices — pin and
	// prefetch — end to end (hintShare writes it, scanHint reads
	// it). Indices, because the file is already named and a []BlockID would
	// cross as a name and an index per block on every task. Nil, and then
	// one byte on the wire, until the scheduler has emitted one.
	Hint []int
}

// hintShare flattens into MapTaskArgs.Hint's layout the part of h that
// concerns the worker at position pos of n live ones: the blocks whose
// home it is. A pin means nothing to a worker that never
// reads the block, and a prefetch there would be a wasted physical read.
// The pins keep scan order, so the first is still where the cursor stands.
func hintShare(h dfs.ScanHint, pos, n int) []int {
	out := make([]int, 0, 8)
	for _, list := range [][]dfs.BlockID{slices.Concat(h.Pin...), h.Prefetch} {
		count := len(out)
		out = append(out, 0)
		for _, id := range list {
			if id.Index%n == pos {
				out = append(out, id.Index)
			}
		}
		out[count] = len(out) - count - 1
	}
	return out
}

// scanHint rebuilds the dfs.ScanHint that Hint flattens. The pins come
// back as one group: the policy pins the run from the first to the last.
func (a *MapTaskArgs) scanHint() (dfs.ScanHint, error) {
	var lists [2][]dfs.BlockID                 // pin, prefetch
	ids := make([]dfs.BlockID, 0, len(a.Hint)) // one array under both
	rest := a.Hint
	for i := range lists {
		if len(rest) == 0 || rest[0] < 0 || rest[0] >= len(rest) {
			return dfs.ScanHint{}, fmt.Errorf("remote: malformed scan hint %v", a.Hint)
		}
		from := len(ids)
		for _, idx := range rest[1 : 1+rest[0]] {
			ids = append(ids, dfs.BlockID{File: a.File, Index: idx})
		}
		lists[i], rest = ids[from:], rest[1+rest[0]:]
	}
	return dfs.ScanHint{File: a.File, Pin: [][]dfs.BlockID{lists[0]}, Prefetch: lists[1]}, nil
}

// PartReceipt is what one map task stashed for one reduce partition of
// one job: its records, and their key and value bytes.
type PartReceipt struct {
	Records, Bytes int64
}

// MapTaskReply answers a map task with what it scanned and, per job and
// partition, a receipt for what it stashed over all its blocks; the records
// stay on the worker. WallNs is how long the handler ran: what is left of
// the master's wait is the hop. PassNs is the time its passes spent in
// mapreduce.MapBlockForJobs, summed over them: the map function's share,
// which the slots overlap. Nothing fills PerJob, and it does not cross
// the task wire: it remains for bench/perf's remote.gob_* probes, which
// gob-encode it.
type MapTaskReply struct {
	PerJob       [][][]mapreduce.KV
	BytesScanned int64
	Receipts     [][]PartReceipt
	WallNs       int64
	PassNs       int64
}

// ReduceTaskArgs asks a worker to reduce one partition of one job from
// the map output the workers hold: its own stash, and what Peers answer
// to Worker.FetchShuffle.
type ReduceTaskArgs struct {
	Job JobRef
	// Epoch and ID are the job's half of the stash key (stash.go).
	Epoch int64
	ID    scheduler.JobID
	// File is what the job scans. The reduce needs exactly one run for
	// every block of it, and reports the blocks it cannot cover.
	File      string
	Partition int
	// Peers are the task addresses of the other live workers.
	Peers []string
	// FetchDeadline bounds each peer's answer, zero for no bound: half the
	// master's task deadline, so a reduce that waited out a wedged peer
	// still answers inside its own.
	FetchDeadline time.Duration
}

// ReduceTaskReply answers a reduce task with a receipt for the output
// frame, which stays in the worker's result store; the master adds the
// holder and journals it. Or, when no reachable worker holds some block's
// run, with those blocks: the master maps them again and retries. WallNs
// is how long the handler ran, FetchNs how much of that it waited on its
// peers' FetchShuffle answers.
type ReduceTaskReply struct {
	Receipt         journal.ResultPart
	Missing         []int
	WallNs, FetchNs int64
}

// FetchArgs asks a worker what it holds of one reduce partition: of its
// map output (FetchShuffle), or its output frame (FetchResult).
type FetchArgs struct {
	Epoch     int64
	ID        scheduler.JobID
	Partition int
}

// FetchReply is a holder's share of a partition: Runs[i] is what block
// Blocks[i] of the job's file gave it, blocks ascending. It crosses as
// one byte string — uvarint run count, then per run its block index and
// a frame (codec.go) — whose records decode as substrings of the body.
type FetchReply struct {
	Blocks []int
	Runs   [][]mapreduce.KV
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

// StatsArgs asks for a worker's lifetime counters, and carries the
// releases (Done, as in MapTaskArgs) a worker with no task coming awaits.
// A heartbeat's is empty: it releases nothing and starts no epoch.
type StatsArgs struct {
	Epoch int64
	Done  []scheduler.JobID
}

// StatsReply is one worker's physical-work ledger — what a heartbeat
// reads, and what a poll folds so remote and local runs give identical
// metrics. The cache fields stay zero on workers running without a block
// cache.
type StatsReply struct {
	// Worker is the reporting worker's identity, filled master-side.
	Worker string
	comms.WireStats
}

// registration is a worker's register frame, the first it sends on its
// connection to the master: who it is, the address its task listener is
// bound to — where its peers fetch map output — and its map slots.
type registration struct {
	ID       string
	Addr     string
	MapSlots int
}
