package remote

import (
	"container/list"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

// The shuffle stash: a map task's output stays, in memory and as mapTask
// returned it, on the worker that produced it, and the worker reducing a
// partition pulls the runs it lacks from its peers — Hadoop's shuffle;
// the master schedules it and never sees a record. An entry is keyed by
// (master epoch, job id, block index) and holds the block's run for every
// partition, so re-running a task overwrites its own entry. The epoch is
// the boot time of the master that numbered the job: one restarted
// without a journal numbers its jobs from 1 again.
//
// The stash is a cache of deterministic map output: a reduce needs
// exactly one run for every block of the job's file, reports the blocks
// it cannot cover, and the master maps those again (Master.finishJob).
// Entries go when the master says their job is done, or when a newer
// master shows up.

// stashJob is the job half of an entry's key.
type stashJob struct {
	epoch int64
	id    scheduler.JobID
}

// stashEntry is one map task's output for one job: parts[p] is the
// block's run for partition p, immutable once stashed.
type stashEntry struct {
	parts [][]mapreduce.KV
	bytes int64
}

type stash struct {
	mu sync.Mutex
	// newest is the latest epoch seen. Entries of an older one are kept
	// while their master still sends tasks (two masters may share workers)
	// and dropped the moment a newer one appears.
	newest      int64
	jobs        map[stashJob]map[int]stashEntry // by block index
	bytes       int64
	entries     int64
	resultStore // results.go: under the same lock and the same epoch rule
}

// admit notes a call's epoch, dropping everything older when it is new,
// and releases the epoch's finished jobs.
func (s *stash) admit(epoch int64, done []scheduler.JobID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.newest {
		s.newest, s.jobs, s.bytes, s.entries = epoch, make(map[stashJob]map[int]stashEntry), 0, 0
		s.results, s.resultBytes = make(map[resultKey]*list.Element), 0
		s.order.Init()
	}
	for _, id := range done {
		for _, e := range s.jobs[stashJob{epoch, id}] {
			s.bytes -= e.bytes
			s.entries--
		}
		delete(s.jobs, stashJob{epoch, id})
	}
}

// receiptOf counts a run.
func receiptOf(kvs []mapreduce.KV) PartReceipt {
	rc := PartReceipt{Records: int64(len(kvs))}
	for _, kv := range kvs {
		rc.Bytes += int64(len(kv.Key) + len(kv.Value))
	}
	return rc
}

// put stashes one task's output for one job, over whatever an earlier
// run of the same task left, and returns its receipts.
func (s *stash) put(job stashJob, block int, parts [][]mapreduce.KV) []PartReceipt {
	e, receipts := stashEntry{parts: parts}, make([]PartReceipt, len(parts))
	for p, kvs := range parts {
		receipts[p] = receiptOf(kvs)
		e.bytes += receipts[p].Bytes
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[job] == nil {
		s.jobs[job] = make(map[int]stashEntry)
	}
	if old, ok := s.jobs[job][block]; ok {
		s.bytes -= old.bytes
		s.entries--
	}
	s.jobs[job][block] = e
	s.bytes += e.bytes
	s.entries++
	return receipts
}

// partition returns the run of every block held for one partition of
// job. The lock is held to walk the entries only — the runs are immutable
// — so two workers reducing for each other never wait on each other.
func (s *stash) partition(job stashJob, p int) map[int][]mapreduce.KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int][]mapreduce.KV, len(s.jobs[job]))
	for block, e := range s.jobs[job] {
		if p >= 0 && p < len(e.parts) {
			out[block] = e.parts[p]
		}
	}
	return out
}

// FetchShuffle serves the worker → worker fetch: what this worker
// holds of one partition, one run per block, ascending. An epoch or job
// it knows nothing of is an empty answer: the reducer reports the gap.
func (w *Worker) FetchShuffle(args *FetchArgs, reply *FetchReply) error {
	w.stash.admit(args.Epoch, nil)
	held := w.stash.partition(stashJob{args.Epoch, args.ID}, args.Partition)
	for block := range held {
		reply.Blocks = append(reply.Blocks, block)
	}
	slices.Sort(reply.Blocks)
	for _, block := range reply.Blocks {
		reply.Runs = append(reply.Runs, held[block])
		w.servedBytes.Add(receiptOf(held[block]).Bytes)
	}
	return nil
}

// gathered is a reduce partition being assembled: at most one run per
// block of the job's file, and how long the peers took to answer.
type gathered struct {
	runs          [][]mapreduce.KV
	have          []bool
	left, records int
	fetchNs       int64
}

// add takes block's run unless the block is covered already (a second
// holder's copy is the same bytes); one the file lacks is the holder's error.
func (g *gathered) add(block int, run []mapreduce.KV) error {
	if block < 0 || block >= len(g.have) {
		return fmt.Errorf("run for block %d of a %d-block file", block, len(g.have))
	}
	if !g.have[block] {
		g.have[block], g.runs[block] = true, run
		g.left--
		g.records += len(run)
	}
	return nil
}

// gather assembles the partition a reduce task names: this worker's own
// runs first — no copy, no codec — and, only if they leave blocks
// uncovered, what every peer holds, all asked at once. An unreachable or
// silent peer contributes nothing; a malformed answer fails the task.
func (w *Worker) gather(args *ReduceTaskArgs, blocks int) (*gathered, error) {
	g := &gathered{runs: make([][]mapreduce.KV, blocks), have: make([]bool, blocks), left: blocks}
	fail := func(who string, err error) error {
		return fmt.Errorf("remote: job %q partition %d: %s: %w", args.Job.Name, args.Partition, who, err)
	}
	for block, run := range w.stash.partition(stashJob{args.Epoch, args.ID}, args.Partition) {
		if err := g.add(block, run); err != nil {
			return nil, fail("this worker's stash", err)
		}
	}
	if g.left == 0 {
		return g, nil
	}
	fa := &FetchArgs{Epoch: args.Epoch, ID: args.ID, Partition: args.Partition}
	began := time.Now()
	expired, stop := expiry(args.FetchDeadline)
	defer stop()
	fetches := make([]peerFetch, len(args.Peers))
	for i, addr := range args.Peers { // all asked at once, then all collected
		fetches[i] = w.startFetch(addr, fa, args.FetchDeadline)
	}
	var first error
	for _, f := range fetches {
		reply := new(FetchReply)
		err := w.finishFetch(f, fa, reply, expired, args.FetchDeadline)
		if isTransportError(err) {
			continue
		}
		for i := 0; err == nil && i < len(reply.Blocks); i++ {
			err = g.add(reply.Blocks[i], reply.Runs[i])
			w.fetchedBytes.Add(receiptOf(reply.Runs[i]).Bytes)
		}
		if err != nil && first == nil {
			first = fail("worker at "+f.addr, err)
		}
	}
	g.fetchNs = int64(time.Since(began))
	return g, first
}

// peerFetch is one peer's FetchShuffle in flight: its call on the
// connection kept for the peer, or why there is none.
type peerFetch struct {
	addr   string
	client *taskClient
	kept   bool // the connection was kept from an earlier fetch
	call   *taskCall
	err    error
}

// startFetch sends FetchShuffle to the peer at addr over the connection
// kept for it, dialing one — within timeout, zero for the system's bound
// — if there is none.
func (w *Worker) startFetch(addr string, args *FetchArgs, timeout time.Duration) peerFetch {
	f := peerFetch{addr: addr}
	w.mu.Lock()
	f.client = w.peers[addr]
	w.mu.Unlock()
	if f.kept = f.client != nil; !f.kept {
		dialed, err := dialTask(addr, timeout)
		if err != nil {
			f.err = err
			return f
		}
		w.mu.Lock()
		if f.client = w.peers[addr]; f.client == nil && !w.closed {
			f.client, w.peers[addr] = dialed, dialed
		}
		w.mu.Unlock()
		if f.client != dialed { // a concurrent reduce dialed first, or the worker closed
			dialed.Close()
		}
		if f.client == nil {
			f.err = fmt.Errorf("remote: worker closed: %w", net.ErrClosed)
			return f
		}
	}
	f.call = f.client.send(fetchShuffle, args)
	return f
}

// finishFetch collects a started fetch. A failed call's connection is
// dropped; if it was a kept one, the peer may have restarted since, so
// the call is made once more on a fresh one — unless it failed by the
// clock.
func (w *Worker) finishFetch(f peerFetch, args *FetchArgs, reply *FetchReply, expired <-chan struct{}, timeout time.Duration) error {
	for {
		err := f.err
		if err == nil {
			if err = f.client.wait(f.call, reply, expired); err == nil {
				return nil
			}
			w.mu.Lock()
			if w.peers[f.addr] == f.client {
				delete(w.peers, f.addr)
			}
			w.mu.Unlock()
			f.client.Close()
		}
		if err == errExpired {
			return &TaskDeadlineError{Worker: f.addr, Method: fetchShuffle.String(), Deadline: timeout}
		}
		if !f.kept || !isTransportError(err) {
			return err
		}
		f = w.startFetch(f.addr, args, timeout)
	}
}
