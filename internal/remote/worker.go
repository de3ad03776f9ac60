package remote

import (
	"container/list"
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// Worker executes map and reduce tasks against its own local block
// store. In the paper's deployment this is a slave node with its HDFS
// blocks on local disk; here the store regenerates blocks from the
// deterministic workload generators, so no data is ever shipped.
type Worker struct {
	store    *dfs.Store
	registry *Registry

	mapTasks    atomic.Int64 // (block, job) units served
	mapPasses   atomic.Int64 // (block, group) passes they took
	reduceTasks atomic.Int64
	// slots bounds the goroutines of one map task, and is what the worker
	// advertises when it registers: the processors it had when it was built.
	slots int

	// stash holds this worker's map output until its jobs are reduced (and
	// their output, until evicted); servedBytes / fetchedBytes: key + value
	// bytes to and from peers.
	stash        stash
	servedBytes  atomic.Int64
	fetchedBytes atomic.Int64

	mu    sync.Mutex
	ln    net.Listener
	addr  string // bound task-serve address, set by Serve
	conns map[net.Conn]struct{}
	// peers are connections to other workers' task servers, or their
	// dials in flight, by address; closed refuses new ones.
	peers  map[string]*peerConn
	closed bool

	// Control-plane state (registration mode; see control.go).
	ctlMu         sync.Mutex
	ctlStop       func() // ends the loop and waits for it
	registrations atomic.Int64
}

// localNode is the one node of a worker's own store. Map tasks read
// there, not through ReadBlock's unattributed shard: it is where
// Store.HandleScanHint lands its readahead.
const localNode dfs.NodeID = 0

// NewWorker builds a worker over its local store and job registry.
func NewWorker(store *dfs.Store, registry *Registry) *Worker {
	if store == nil || registry == nil {
		panic("remote: worker needs a store and a registry")
	}
	w := &Worker{store: store, registry: registry, peers: make(map[string]*peerConn), slots: runtime.GOMAXPROCS(0)}
	w.stash.jobs = make(map[stashJob][]stashEntry)
	w.stash.results, w.stash.budget = make(map[resultKey]*list.Element), resultBudget
	return w
}

// readLayer and mapLayer label a map task's block reads and passes in the
// worker's CPU profile (go tool pprof -tags): the read and map layers'
// shares, whichever goroutine ran them.
var readLayer, mapLayer = pprof.Labels("layer", "read"), pprof.Labels("layer", "map")

// ExecMap serves the map task call: scan each block once, map it in one
// pass for each group of mapreduce.MapGroups — jobs whose mappers share
// one are served by one parse — combine and partition each job's output,
// and stash it: the reply is a receipt, the records leave only by a fetch.
// The (block × group) passes run on the worker's slots; a task that fails
// — with the error of its lowest (block, job) unit — has stashed nothing.
func (w *Worker) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	began := time.Now()
	if len(args.Jobs) == 0 || len(args.IDs) != len(args.Jobs) {
		return fmt.Errorf("remote: map task with %d jobs and %d job ids", len(args.Jobs), len(args.IDs))
	}
	f, err := w.store.File(args.File)
	if err != nil {
		return err
	}
	ok := len(args.Blocks) > 0
	for i, b := range args.Blocks {
		ok = ok && b >= 0 && b < f.NumBlocks && (i == 0 || b > args.Blocks[i-1])
	}
	if !ok {
		return fmt.Errorf("remote: map task over blocks %v of %d-block %q: want indices of the file, ascending", args.Blocks, f.NumBlocks, args.File)
	}
	// Resolve every unit before touching the store: a task naming an
	// unknown factory is rejected without paying for a block read. A unit —
	// one job over one block — has a mapper and combiner of its own: a
	// factory may hand out instances that keep state.
	nb, nj := len(args.Blocks), len(args.Jobs)
	built := make([]mapreduce.MapJob, nb*nj) // block-major, jobs in task order
	for i := range built {
		u, ref := &built[i], args.Jobs[i%nj]
		if u.Mapper, _, u.Combiner, err = w.registry.Build(ref.Factory, ref.Param); err != nil {
			return err
		}
		u.Width = ref.width()
	}
	// A block's units go group by group (order[k] is the job at position k
	// of a block's run, at[j] job j's position), so a pass's jobs, their
	// partitions and their errors are each one run of units, parts and errs.
	groups := mapreduce.MapGroups(built[:nj])
	order, at, starts := slices.Concat(groups...), make([]int, nj), make([]int, len(groups)+1)
	for k, j := range order {
		at[j] = k
	}
	for g, group := range groups {
		starts[g+1] = starts[g] + len(group)
	}
	units := make([]mapreduce.MapJob, nb*nj)
	for i := range units {
		units[i] = built[i-i%nj+order[i%nj]]
	}
	if args.Hint != nil {
		// Before the reads: the demotion frees room for these blocks, and the
		// readahead of the segment after them overlaps this task's map work.
		hint, err := args.scanHint()
		if err != nil {
			return err
		}
		w.store.HandleScanHint(hint)
	}
	w.stash.admit(args.Epoch, args.Done)

	// A block is read by the first pass to reach it, the others wait there;
	// passes are taken group-major, so one block's miss overlaps another's maps.
	reads := make([]struct {
		once sync.Once
		data []byte
		err  error
	}, nb)
	parts, errs := make([][][]mapreduce.KV, len(units)), make([]error, len(units))
	passes := nb * len(groups)
	var next, passNs atomic.Int64
	run := func() {
		for k := int(next.Add(1)) - 1; k < passes; k = int(next.Add(1)) - 1 {
			b, g := k%nb, k/nb
			lo, hi := b*nj+starts[g], b*nj+starts[g+1]
			rd, id := &reads[b], dfs.BlockID{File: args.File, Index: args.Blocks[b]}
			rd.once.Do(func() {
				pprof.Do(context.TODO(), readLayer, func(context.Context) { rd.data, rd.err = w.store.ReadBlockAt(id, localNode) })
			})
			if rd.err != nil {
				for i := lo; i < hi; i++ {
					errs[i] = rd.err
				}
				continue
			}
			pprof.Do(context.TODO(), mapLayer, func(context.Context) {
				passed := time.Now()
				mapreduce.MapBlockForJobs(id, rd.data, units[lo:hi], parts[lo:hi], errs[lo:hi])
				passNs.Add(int64(time.Since(passed)))
				for i := lo; i < hi; i++ {
					if errs[i] != nil {
						errs[i] = fmt.Errorf("remote: job %q block %d: %w", args.Jobs[order[i-b*nj]].Name, id.Index, errs[i])
					}
				}
			})
		}
	}
	var wg sync.WaitGroup
	for g := min(w.slots, passes); g > 1; g-- { // this goroutine is one of them
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()

	for i := range units { // the lowest (block, job) unit's error
		if err := errs[i-i%nj+at[i%nj]]; err != nil {
			return err
		}
	}
	reply.Receipts = make([][]PartReceipt, nj)
	for j, ref := range args.Jobs {
		reply.Receipts[j] = make([]PartReceipt, ref.width())
	}
	for i := range units {
		j := order[i%nj]
		for p, rc := range w.stash.put(stashJob{args.Epoch, args.IDs[j]}, args.Blocks[i/nj], parts[i]) {
			reply.Receipts[j][p].Records += rc.Records
			reply.Receipts[j][p].Bytes += rc.Bytes
		}
	}
	for b := range reads {
		reply.BytesScanned += int64(len(reads[b].data))
	}
	w.mapTasks.Add(int64(len(units)))
	w.mapPasses.Add(int64(passes))
	reply.WallNs, reply.PassNs = int64(time.Since(began)), passNs.Load()
	return nil
}

// ExecReduce serves the reduce task call: gather the partition from
// the stashes and — only if exactly one run covers every block of the
// job's file — sort, group, reduce, keep the frame; else reply the gaps.
func (w *Worker) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	began := time.Now()
	defer func() { reply.WallNs = int64(time.Since(began)) }()
	_, reducer, _, err := w.registry.Build(args.Job.Factory, args.Job.Param)
	if err != nil {
		return err
	}
	f, err := w.store.File(args.File)
	if err != nil {
		return fmt.Errorf("remote: job %q partition %d: %w", args.Job.Name, args.Partition, err)
	}
	w.stash.admit(args.Epoch, nil)
	g, err := w.gather(args, f.NumBlocks)
	if err != nil {
		return err
	}
	reply.FetchNs = g.fetchNs
	if g.left > 0 {
		for block, ok := range g.have {
			if !ok {
				reply.Missing = append(reply.Missing, block)
			}
		}
		return nil
	}
	records := make([]mapreduce.KV, 0, g.records) // its own to sort: the headers are copied, the bytes are not
	for _, run := range g.runs {
		records = append(records, run...)
	}
	out, err := mapreduce.ReduceInPlace(records, reducer)
	if err != nil {
		return fmt.Errorf("remote: job %q partition %d: %w", args.Job.Name, args.Partition, err)
	}
	reply.Receipt = w.stash.putResult(resultKey{stashJob{args.Epoch, args.ID}, args.Partition}, mapreduce.AppendFrame(nil, out), int64(len(out)))
	w.reduceTasks.Add(1)
	return nil
}

// InstallFile serves the install call: add a derived file's
// blocks to the local store. Idempotent — re-installation of a file
// the store already holds is acked if the geometry matches (a master
// re-pushing after recovery, or a re-registration replay) and rejected
// if it does not (two runs' leftovers colliding is a deployment bug
// worth surfacing, not papering over).
func (w *Worker) InstallFile(args *InstallFileArgs, reply *InstallFileReply) error {
	if args.Name == "" || len(args.Blocks) == 0 {
		return fmt.Errorf("remote: install needs a name and at least one block")
	}
	if f, err := w.store.File(args.Name); err == nil {
		if f.NumBlocks != len(args.Blocks) || f.BlockSize != args.BlockSize {
			return fmt.Errorf("remote: file %q already installed with %d×%dB blocks, refusing %d×%dB",
				args.Name, f.NumBlocks, f.BlockSize, len(args.Blocks), args.BlockSize)
		}
		return nil
	}
	if _, err := w.store.AddFile(args.Name, args.BlockSize, args.Blocks); err != nil {
		return fmt.Errorf("remote: installing %q: %w", args.Name, err)
	}
	return nil
}

// Stats serves the ledger poll.
func (w *Worker) Stats(args *StatsArgs, reply *StatsReply) error {
	w.stash.admit(args.Epoch, args.Done)
	reply.WireStats = w.wireStats()
	return nil
}

// Serve starts the worker's task server on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address. It serves until Close.
func (w *Worker) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	w.mu.Lock()
	w.ln = ln
	w.addr = ln.Addr().String()
	w.conns = make(map[net.Conn]struct{})
	w.closed = false // a closed worker may serve again
	w.mu.Unlock()
	serve := dispatchTo(w)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			w.mu.Lock()
			if w.conns == nil {
				w.mu.Unlock()
				conn.Close()
				return
			}
			w.conns[conn] = struct{}{}
			w.mu.Unlock()
			go func() {
				serveTasks(conn, serve) // a connection that breaks the protocol is only closed
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close kills the worker: the control loop (if registered with a
// master) stops, and the listener and every live connection, to masters
// and to peers, are torn down, so in-flight and future calls fail with
// transport errors — the observable signature of a dead slave node.
func (w *Worker) Close() error {
	w.stopControl()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for _, pc := range w.peers {
		if pc.client != nil {
			pc.client.Close()
		}
	}
	clear(w.peers)
	if w.ln == nil {
		return nil
	}
	err := w.ln.Close()
	w.ln = nil
	for conn := range w.conns {
		conn.Close()
	}
	w.conns = nil
	return err
}
