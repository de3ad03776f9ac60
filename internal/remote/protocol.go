package remote

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// Wire types for the master↔worker RPC protocol: net/rpc, whose gob
// codec carries the control fields; every record payload crosses as
// mapreduce frames (DESIGN.md, "Shuffle wire format").

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
	// Hint is the receiving worker's share of the scheduler's newest
	// dfs.ScanHint for File: three counted lists of block indices — pin,
	// demote, prefetch — end to end (hintShare writes it, scanHint reads
	// it). Indices, because the file is already named and a []BlockID would
	// cross gob as a struct per block on every task. Nil, and then absent
	// from the wire, until the scheduler has emitted one.
	Hint []int
}

// hintShare flattens into MapTaskArgs.Hint's layout the part of h that
// concerns the worker at position pos of n live ones: the blocks whose
// home it is. A pin or a demote means nothing to a worker that never
// reads the block, and a prefetch there would be a wasted physical read.
func hintShare(h dfs.ScanHint, pos, n int) []int {
	out := make([]int, 0, 8)
	for _, list := range [][]dfs.BlockID{slices.Concat(h.Pin...), h.Demote, h.Prefetch} {
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
// back as one group: the policy takes their union.
func (a *MapTaskArgs) scanHint() (dfs.ScanHint, error) {
	var lists [3][]dfs.BlockID                 // pin, demote, prefetch
	ids := make([]dfs.BlockID, 0, len(a.Hint)) // one array under all three
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
	return dfs.ScanHint{File: a.File, Pin: [][]dfs.BlockID{lists[0]}, Demote: lists[1], Prefetch: lists[2]}, nil
}

// MapTaskReply carries the shuffled output: PerJob[i][p] is the slice
// of records job i emitted into reduce partition p. It crosses gob as
// one byte string — uvarint BytesScanned and job count, then per job
// its partition count and a frame per partition — so gob walks no record.
type MapTaskReply struct {
	PerJob       [][][]mapreduce.KV
	BytesScanned int64
}

// GobEncode implements gob.GobEncoder with a single allocation.
func (r MapTaskReply) GobEncode() ([]byte, error) {
	size := 2 * binary.MaxVarintLen64
	for _, parts := range r.PerJob {
		size += binary.MaxVarintLen64
		for _, kvs := range parts {
			size += mapreduce.FrameSize(kvs)
		}
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(r.BytesScanned))
	buf = binary.AppendUvarint(buf, uint64(len(r.PerJob)))
	for _, parts := range r.PerJob {
		buf = binary.AppendUvarint(buf, uint64(len(parts)))
		for _, kvs := range parts {
			buf = mapreduce.AppendFrame(buf, kvs)
		}
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. data is the decoder's to reuse,
// so it is copied once, into the string every decoded key and value is
// a substring of. An empty partition comes back nil.
func (r *MapTaskReply) GobDecode(data []byte) (err error) {
	s := string(data)
	next := func(limit int) (n int) { // 0 once anything has failed
		if err == nil {
			n, s, err = mapreduce.FrameUvarint(s, limit)
		}
		return n
	}
	scanned := next(math.MaxInt)
	perJob := make([][][]mapreduce.KV, next(len(s))) // a job is one byte at least, so is a partition
	for i := range perJob {
		perJob[i] = make([][]mapreduce.KV, next(len(s)))
		for p := 0; p < len(perJob[i]) && err == nil; p++ {
			perJob[i][p], s, err = mapreduce.DecodeFrame(s)
		}
	}
	if err == nil && s != "" {
		err = fmt.Errorf("%d trailing bytes", len(s))
	}
	if err != nil {
		return fmt.Errorf("remote: malformed map reply: %w", err)
	}
	r.PerJob, r.BytesScanned = perJob, int64(scanned)
	return nil
}

// Records is a record slice that crosses gob as one frame.
type Records []mapreduce.KV

// GobEncode implements gob.GobEncoder.
func (r Records) GobEncode() ([]byte, error) { return mapreduce.AppendFrame(nil, r), nil }

// GobDecode implements gob.GobDecoder; see MapTaskReply.GobDecode.
func (r *Records) GobDecode(data []byte) (err error) {
	if err = mapreduce.CheckFrame(data); err == nil {
		*r, _, _ = mapreduce.DecodeFrame(string(data))
	}
	return err
}

// ReduceTaskArgs asks a worker to reduce one partition of one job.
type ReduceTaskArgs struct {
	Job       JobRef
	Partition int
	Records   Records
	// Corr is the master-assigned correlation id ("j<job>.p<part>").
	Corr string
}

// ReduceTaskReply carries the partition's reduced output, sorted, as one
// frame: the master keeps the bytes and decodes them only on request.
type ReduceTaskReply struct {
	Output []byte
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

// StatsReply is one worker's physical-work ledger — the heartbeat's
// counters, polled — so remote and local runs fold into identical
// metrics. The cache fields stay zero on workers running without a
// block cache.
type StatsReply struct {
	// Worker is the reporting worker's identity, filled master-side.
	Worker string
	comms.WireStats
}
