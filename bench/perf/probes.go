package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/workload"
)

// Layer probes: timed direct calls into one layer's public functions on
// fixed, seed-derived inputs. They need no cluster and read the same on
// every workload unless noted.

// Probe inputs: 4 MB of each file kind, the block sizes of the workloads
// that use them.
const (
	probeTextBlocks, probeTextBlockSize         = 16, 256 << 10
	probeLineitemBlocks, probeLineitemBlockSize = 8, 512 << 10
)

type probeInputs struct {
	text, lineitem [][]byte
}

func newProbeInputs(seed int64) probeInputs {
	return probeInputs{
		text:     genBlocks("corpus", probeTextBlocks, probeTextBlockSize, seed),
		lineitem: genBlocks("lineitem", probeLineitemBlocks, probeLineitemBlockSize, seed),
	}
}

func totalMB(blocks [][]byte) float64 {
	var n int
	for _, b := range blocks {
		n += len(b)
	}
	return float64(n) / (1 << 20)
}

func kvMB(parts ...[]mapreduce.KV) float64 {
	var n int
	for _, kvs := range parts {
		for _, kv := range kvs {
			n += len(kv.Key) + len(kv.Value)
		}
	}
	return float64(n) / (1 << 20)
}

// bestOf runs f reps times and returns the fastest wall time in seconds:
// for a fixed CPU-bound input the minimum is the reading least disturbed
// by the host.
func bestOf(reps int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best, nil
}

// probeMapBlock times MapBlockForJob (map + combine + partition) over the
// blocks and counts its heap allocations.
func probeMapBlock(factory, param, file string, blocks [][]byte) (msPerMB, allocsPerMB float64, err error) {
	mapper, _, combiner, err := remote.NewStandardRegistry().Build(factory, param)
	if err != nil {
		return 0, 0, err
	}
	var before, after goruntime.MemStats
	pass := func() error {
		for i, b := range blocks {
			if _, err := mapreduce.MapBlockForJob(dfs.BlockID{File: file, Index: i}, b, mapper, combiner, 2); err != nil {
				return err
			}
		}
		return nil
	}
	goruntime.ReadMemStats(&before)
	if err := pass(); err != nil {
		return 0, 0, err
	}
	goruntime.ReadMemStats(&after)
	s, err := bestOf(3, pass)
	if err != nil {
		return 0, 0, err
	}
	mb := totalMB(blocks)
	return s * 1000 / mb, float64(after.Mallocs-before.Mallocs) / mb, nil
}

// probeSeq is the sequential baseline: one whole job, single-threaded,
// over the probe blocks, in input MB per second.
func probeSeq(factory, param, file string, blocks [][]byte) (float64, error) {
	reg := remote.NewStandardRegistry()
	s, err := bestOf(3, func() error {
		_, err := seqJob(reg, factory, param, file, 2, blocks)
		return err
	})
	return ratio(totalMB(blocks), s), err
}

// selectionShuffle is the map output of the probe lineitem blocks under
// the 10% selection: per block, two reduce partitions — the payload that
// crosses the wire and the journal on sel-shuffle.
func selectionShuffle(in probeInputs) ([][][]mapreduce.KV, error) {
	mapper, _, _, err := remote.NewStandardRegistry().Build("selection", "5")
	if err != nil {
		return nil, err
	}
	out := make([][][]mapreduce.KV, len(in.lineitem))
	for i, b := range in.lineitem {
		if out[i], err = mapreduce.MapBlockForJob(dfs.BlockID{File: "lineitem", Index: i}, b, mapper, nil, 2); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeReducePartition times ReducePartition (copy + sort, nil reducer)
// over the selection's records, per MB of key+value bytes.
func probeReducePartition(shuffle [][][]mapreduce.KV) (float64, error) {
	var records []mapreduce.KV
	for _, parts := range shuffle {
		records = append(records, parts[0]...)
	}
	s, err := bestOf(3, func() error {
		_, err := mapreduce.ReducePartition(records, nil)
		return err
	})
	return ratio(s*1000, kvMB(records)), err
}

// probeGob encodes and decodes real MapTaskReply values the way net/rpc
// does: one long-lived encoder / decoder pair per connection.
func probeGob(shuffle [][][]mapreduce.KV) (encMsPerMB, decMsPerMB, wirePerKV float64, err error) {
	var mb float64
	for _, parts := range shuffle {
		mb += kvMB(parts...)
	}
	var buf bytes.Buffer
	var wire int
	encS, err := bestOf(3, func() error {
		buf.Reset()
		enc := gob.NewEncoder(&buf)
		for _, parts := range shuffle {
			if err := enc.Encode(&remote.MapTaskReply{PerJob: [][][]mapreduce.KV{parts}, BytesScanned: probeLineitemBlockSize}); err != nil {
				return err
			}
		}
		wire = buf.Len()
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	stream := append([]byte(nil), buf.Bytes()...)
	decS, err := bestOf(3, func() error {
		dec := gob.NewDecoder(bytes.NewReader(stream))
		for range shuffle {
			var reply remote.MapTaskReply
			if err := dec.Decode(&reply); err != nil {
				return err
			}
		}
		return nil
	})
	return ratio(encS*1000, mb), ratio(decS*1000, mb), ratio(float64(wire)/(1<<20), mb), err
}

// probeReads times dfs.Store.ReadBlockAt over the workload's own file on
// a cache big enough to hold it: the first pass misses (the generator
// stands in for the disk), the second hits.
func probeReads(s spec, seed int64) (missUsPerMB, hitUsPerMB float64, err error) {
	store, err := dfs.NewStore(1, 1)
	if err != nil {
		return 0, 0, err
	}
	add := workload.AddTextFile
	if s.File == "lineitem" {
		add = workload.AddLineitemFile
	}
	if _, err := add(store, s.File, s.Blocks, s.BlockSize, seed); err != nil {
		return 0, 0, err
	}
	if _, err := store.EnableCachePolicy(2*int64(s.Blocks)*s.BlockSize, dfs.PolicyLRU); err != nil {
		return 0, 0, err
	}
	pass := func() (float64, error) {
		start := time.Now()
		for i := 0; i < s.Blocks; i++ {
			if _, err := store.ReadBlockAt(dfs.BlockID{File: s.File, Index: i}, 0); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / s.fileMB(), nil
	}
	if missUsPerMB, err = pass(); err != nil {
		return 0, 0, err
	}
	hitUsPerMB, err = pass()
	return missUsPerMB, hitUsPerMB, err
}

// stubAdmission accepts everything: what is left of POST /jobs is the
// status layer's own decode, dispatch and reply.
type stubAdmission struct{ next scheduler.JobID }

func (a *stubAdmission) SubmitJob(status.JobRequest) (scheduler.JobID, error) {
	a.next++
	return a.next, nil
}
func (a *stubAdmission) JobStatus(scheduler.JobID) (runtime.JobStatus, bool) {
	return runtime.JobStatus{}, false
}
func (a *stubAdmission) Jobs() []runtime.JobStatus { return nil }

func probePostJobs() (float64, error) {
	srv := status.NewServer("probe")
	srv.SetAdmission(&stubAdmission{})
	h := srv.Handler()
	const posts = 2000
	us := make([]float64, 0, posts)
	for i := 0; i < posts; i++ {
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"factory":"wordcount","param":"t","numReduce":2}`))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(start).Nanoseconds())/1000)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("probe POST /jobs: status %d: %s", rec.Code, rec.Body)
		}
	}
	return median(us), nil
}

// maxReplayed bounds the journal re-append probes: with fsync on a real
// disk a full admit-durable journal would take longer than the run.
const maxReplayed = 400

// probeJournalAppend replays the replica's journal and appends its first
// records to a fresh journal in dir under the given sync policy; the
// median append time in microseconds. SyncNever prices encode + write,
// SyncAlways adds this machine's device flush.
func probeJournalAppend(replicaJournal, dir string, pol journal.SyncPolicy) (float64, error) {
	f, err := os.Open(replicaJournal)
	if err != nil {
		return 0, err
	}
	entries, err := journal.Replay(f)
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("replaying %s: %w", replicaJournal, err)
	}
	if len(entries) > maxReplayed {
		entries = entries[:maxReplayed]
	}
	path := filepath.Join(dir, "probe.wal")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	j, _, err := journal.Open(path, journal.Options{Sync: pol})
	if err != nil {
		return 0, err
	}
	us := make([]float64, 0, len(entries))
	for _, e := range entries {
		start := time.Now()
		if err := j.Append(e); err != nil {
			j.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1000)
	}
	return median(us), j.Close()
}

// probeJournalEncode appends shuffle-committed records carrying the
// selection's map output, fsync never: JSON encode + CRC + write, per MB
// of journal written.
func probeJournalEncode(shuffle [][][]mapreduce.KV, dir string) (float64, error) {
	path := filepath.Join(dir, "encode.wal")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	j, _, err := journal.Open(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for seg, parts := range shuffle {
		rec := journal.ShuffleCommittedRecord{Job: 1, Segment: seg, File: "lineitem", Parts: parts}
		if err := j.AppendRecord(journal.KindShuffleCommitted, rec); err != nil {
			j.Close()
			return 0, err
		}
	}
	s := time.Since(start).Seconds()
	mb := float64(j.Stats().Bytes) / (1 << 20)
	return ratio(s*1000, mb), j.Close()
}

// probeSpanCost is what recording one span costs the traced replica.
func probeSpanCost() float64 {
	const n = 200_000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := r.now()
		r.add(span{Name: "probe", Lane: "master", Start: t0, End: r.now(), Parent: -1, Job: i, Round: -1})
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// probeAll runs every workload-independent probe into m.
func probeAll(m map[string]float64, seed int64, dir string) error {
	in := newProbeInputs(seed)
	var err error
	if m["mapreduce.map_block_ms_per_mb.wordcount"], m["mapreduce.map_block_allocs_per_mb.wordcount"], err =
		probeMapBlock("wordcount", "t", "corpus", in.text); err != nil {
		return err
	}
	if m["mapreduce.map_block_ms_per_mb.selection"], m["mapreduce.map_block_allocs_per_mb.selection"], err =
		probeMapBlock("selection", "5", "lineitem", in.lineitem); err != nil {
		return err
	}
	if m["seq.wordcount_mb_per_s"], err = probeSeq("wordcount", "t", "corpus", in.text); err != nil {
		return err
	}
	if m["seq.selection_mb_per_s"], err = probeSeq("selection", "5", "lineitem", in.lineitem); err != nil {
		return err
	}
	shuffle, err := selectionShuffle(in)
	if err != nil {
		return err
	}
	if m["mapreduce.reduce_partition_ms_per_mb"], err = probeReducePartition(shuffle); err != nil {
		return err
	}
	if m["remote.gob_encode_ms_per_mb"], m["remote.gob_decode_ms_per_mb"], m["remote.wire_bytes_per_kv_byte"], err = probeGob(shuffle); err != nil {
		return err
	}
	if m["journal.encode_ms_per_mb"], err = probeJournalEncode(shuffle, dir); err != nil {
		return err
	}
	if m["status.post_jobs_us"], err = probePostJobs(); err != nil {
		return err
	}
	m["trace.span_cost_ns"] = probeSpanCost()
	return nil
}
