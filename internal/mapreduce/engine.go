package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"s3sched/internal/dfs"
)

// InputRecordCounter is an optional interface a Mapper can implement
// to report how many logical records (lines, tuples, …) a block
// contains, so the engine can charge map.input.records the way Hadoop
// does. Without it only byte-level input accounting is available.
type InputRecordCounter interface {
	CountInputRecords(data []byte) int64
}

// RoundStats summarizes one map round's physical work.
type RoundStats struct {
	Blocks       int   // blocks scanned (each at least once)
	BytesScanned int64 // bytes read from the store
	MapTasks     int   // map task executions (blocks × jobs)
	LocalTasks   int   // block-scan tasks that ran on a replica holder
	// Retries counts re-executions of block attempts after a failure
	// (0 when no faults occur or retries are disabled).
	Retries int
	// FailedAttempts counts block-read attempts that failed.
	FailedAttempts int
	// Blacklisted counts nodes marked down by this round after
	// RetryPolicy.BlacklistAfter consecutive failures.
	Blacklisted int
}

// RetryPolicy bounds how the engine retries failed block reads within
// a map round. The zero value is invalid; DefaultRetryPolicy (one
// attempt, no retries) matches the engine's historical behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per block, counting
	// the first. 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles on
	// each subsequent retry. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential delay. 0 means no cap.
	MaxBackoff time.Duration
	// Jitter adds a deterministic per-(block,attempt) offset of up to
	// half the delay, de-synchronizing retry bursts without a global
	// random source.
	Jitter bool
	// BlacklistAfter marks a node down (Cluster.SetHealth) after this
	// many consecutive failed attempts on it, steering later
	// assignments and failovers away. 0 disables blacklisting.
	BlacklistAfter int
}

// DefaultRetryPolicy returns the engine's default: a single attempt
// per block, matching the pre-fault-tolerance behavior exactly.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("mapreduce: retry policy needs at least 1 attempt, got %d", p.MaxAttempts)
	}
	if p.Backoff < 0 || p.MaxBackoff < 0 {
		return fmt.Errorf("mapreduce: retry backoff must be non-negative")
	}
	if p.BlacklistAfter < 0 {
		return fmt.Errorf("mapreduce: BlacklistAfter must be non-negative, got %d", p.BlacklistAfter)
	}
	return nil
}

// BlockLostError reports that a block could not be read by any allowed
// attempt: every retry and replica failover failed. The round carrying
// the block is lost and must be re-driven by the scheduling layer.
type BlockLostError struct {
	Block    dfs.BlockID
	Attempts int
	Err      error // last attempt's failure
}

func (e *BlockLostError) Error() string {
	return fmt.Sprintf("mapreduce: block %v lost after %d attempts: %v", e.Block, e.Attempts, e.Err)
}

func (e *BlockLostError) Unwrap() error { return e.Err }

// Engine executes map rounds and reduce phases on a cluster.
//
// The engine is deliberately round-oriented: FIFO runs a job as one
// round over all its blocks; MRShare runs a merged batch as one round
// over all blocks; S^3 runs one round per segment with whatever batch
// of sub-jobs the JQM aligned. In every case a block is read exactly
// once per round no matter how many jobs consume it.
type Engine struct {
	cluster *Cluster
	retry   RetryPolicy
}

// NewEngine returns an engine over the cluster. The retry policy is
// DefaultRetryPolicy (no retries) and, like the paper's configuration
// (§V-A), there is no speculative execution: a block has one attempt
// chain, so exactly one attempt commits its output.
func NewEngine(cluster *Cluster) *Engine {
	return &Engine{cluster: cluster, retry: DefaultRetryPolicy()}
}

// SetRetryPolicy installs the per-block retry/failover policy used by
// subsequent map rounds.
func (e *Engine) SetRetryPolicy(p RetryPolicy) error {
	if err := p.validate(); err != nil {
		return err
	}
	e.retry = p
	return nil
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// MapRound scans each block once and feeds its contents to the mapper
// of every job in jobs, shuffling each job's output into its own reduce
// partitions. Tasks run concurrently, bounded by per-node map slots,
// preferring data-local placement.
//
// MapRound keeps the historical single-error contract: the first
// per-job failure (or the round failure) is returned. Callers that
// need per-job fault isolation use MapRoundCtx.
func (e *Engine) MapRound(blocks []dfs.BlockID, jobs []*Running) (RoundStats, error) {
	stats, jobErrs, roundErr := e.MapRoundCtx(context.Background(), blocks, jobs)
	if roundErr != nil {
		return stats, roundErr
	}
	for _, err := range jobErrs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// MapRoundCtx is MapRound with cancellation and per-job fault
// isolation. It returns per-job errors (indexed like jobs) alongside a
// round-level error. A job whose mapper or commit fails is dropped
// from the rest of the round but does not disturb the other jobs; the
// round-level error is non-nil only when the round itself could not
// complete — a block was lost after exhausting every retry and replica
// (a *BlockLostError), or ctx was cancelled. Failed blocks cancel all
// in-flight work promptly.
func (e *Engine) MapRoundCtx(ctx context.Context, blocks []dfs.BlockID, jobs []*Running) (RoundStats, []error, error) {
	if len(jobs) == 0 {
		return RoundStats{}, nil, fmt.Errorf("mapreduce: MapRound with no jobs")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &mapRound{
		engine:      e,
		ctx:         ctx,
		cancel:      cancel,
		jobs:        jobs,
		stats:       RoundStats{Blocks: len(blocks)},
		jobErrs:     make([]error, len(jobs)),
		consecFails: make(map[dfs.NodeID]int),
	}
	var wg sync.WaitGroup
	for _, asg := range e.cluster.assignBlocks(blocks) {
		wg.Add(1)
		go func(asg assignment) {
			defer wg.Done()
			r.runBlock(asg)
		}(asg)
	}
	wg.Wait()
	if r.roundErr == nil && ctx.Err() != nil {
		r.roundErr = ctx.Err()
	}
	return r.stats, r.jobErrs, r.roundErr
}

// mapRound is the state one MapRoundCtx call shares between its block
// goroutines.
type mapRound struct {
	engine *Engine
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*Running

	mu          sync.Mutex // guards the fields below
	stats       RoundStats
	roundErr    error
	jobErrs     []error // a job's first error; non-nil drops it from the rest of the round
	consecFails map[dfs.NodeID]int
}

// errRoundFailed marks an attempt whose output was discarded because
// the round had already failed.
var errRoundFailed = errors.New("round already failed")

func (r *mapRound) failRound(err error) {
	r.mu.Lock()
	if r.roundErr == nil {
		r.roundErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

func (r *mapRound) failJob(j int, block dfs.BlockID, err error) {
	r.mu.Lock()
	if r.jobErrs[j] == nil {
		r.jobErrs[j] = fmt.Errorf("job %q block %v: %w", r.jobs[j].Spec.Name, block, err)
	}
	r.mu.Unlock()
}

// attempt runs one execution of asg.block on asg.node: read the block,
// map it for every job still in the round — one pass per group of
// MapGroups, its input records counted once — commit. Job-level failures
// are recorded in jobErrs and absorbed; only read/infrastructure errors
// are returned.
func (r *mapRound) attempt(asg assignment) error {
	e := r.engine
	if err := asg.node.acquireCtx(r.ctx); err != nil {
		return err
	}
	defer asg.node.release()

	data, err := e.cluster.store.ReadBlockAt(asg.block, asg.node.ID)
	if err != nil {
		r.mu.Lock()
		r.stats.FailedAttempts++
		r.consecFails[asg.node.ID]++
		fails := r.consecFails[asg.node.ID]
		r.mu.Unlock()
		if k := e.retry.BlacklistAfter; k > 0 && fails == k && e.cluster.Healthy(asg.node.ID) {
			e.cluster.SetHealth(asg.node.ID, false)
			r.mu.Lock()
			r.stats.Blacklisted++
			r.mu.Unlock()
		}
		return err
	}
	outs := make([]jobTask, len(r.jobs)) // parts nil: the job failed and is isolated from the batch
	var live []int                       // the jobs not isolated yet: only they form the passes
	var jobs []MapJob
	r.mu.Lock()
	r.consecFails[asg.node.ID] = 0
	for j, job := range r.jobs {
		if r.jobErrs[j] == nil {
			live, jobs = append(live, j), append(jobs, MapJob{job.Spec.Mapper, job.Spec.Combiner, job.Spec.reduceWidth()})
		}
	}
	r.mu.Unlock()
	tasks := mapTask(asg.block, data, jobs)
	for _, group := range MapGroups(jobs) {
		var records int64 // one count a pass: its jobs' mappers are of one type
		if rc, ok := jobs[group[0]].Mapper.(InputRecordCounter); ok {
			records = rc.CountInputRecords(data)
		}
		for _, k := range group {
			if t := tasks[k]; t.err != nil {
				r.failJob(live[k], asg.block, t.err)
			} else {
				t.counts.inputRecords = records
				outs[live[k]] = t
			}
		}
	}

	r.mu.Lock()
	if r.roundErr != nil {
		r.mu.Unlock()
		return errRoundFailed
	}
	r.stats.BytesScanned += int64(len(data))
	r.stats.MapTasks += len(r.jobs)
	if asg.local {
		r.stats.LocalTasks++
	}
	r.mu.Unlock()

	for j, job := range r.jobs {
		if outs[j].parts == nil {
			continue
		}
		if err := e.commitMapTask(job, outs[j].parts, outs[j].counts); err != nil {
			r.failJob(j, asg.block, err)
		}
	}
	return nil
}

// runBlock drives one block's retry chain: attempts with exponential
// backoff, failing over to a surviving replica holder after each
// failure. The chain ends on commit, round failure, cancel, or attempt
// exhaustion (which loses the round).
func (r *mapRound) runBlock(asg assignment) {
	e := r.engine
	tried := map[dfs.NodeID]bool{}
	for attempt := 1; ; attempt++ {
		err := r.attempt(asg)
		if err == nil || errors.Is(err, errRoundFailed) {
			return
		}
		if r.ctx.Err() != nil {
			return // round cancelled; its error is already set
		}
		tried[asg.node.ID] = true
		if attempt >= e.retry.MaxAttempts {
			r.failRound(&BlockLostError{Block: asg.block, Attempts: attempt, Err: err})
			return
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		if !e.sleepBackoff(r.ctx, asg.block, attempt) {
			return
		}
		next := e.failoverNode(asg.block, asg.node, tried)
		asg = assignment{block: asg.block, node: next, local: e.cluster.store.HasLocal(asg.block, next.ID)}
	}
}

// sleepBackoff waits out the exponential backoff before the next
// attempt of block b; attempt is the 1-based attempt that just failed.
// Returns false if ctx was cancelled during the wait.
func (e *Engine) sleepBackoff(ctx context.Context, b dfs.BlockID, attempt int) bool {
	d := e.retry.Backoff
	if d <= 0 {
		return ctx.Err() == nil
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if e.retry.MaxBackoff > 0 && d >= e.retry.MaxBackoff {
			d = e.retry.MaxBackoff
			break
		}
	}
	if e.retry.MaxBackoff > 0 && d > e.retry.MaxBackoff {
		d = e.retry.MaxBackoff
	}
	if e.retry.Jitter {
		// Deterministic per-(block, attempt) jitter in [0, d/2): spreads
		// synchronized retries without a global random source.
		h := uint64(14695981039346656037)
		for i := 0; i < len(b.File); i++ {
			h = (h ^ uint64(b.File[i])) * 1099511628211
		}
		h ^= uint64(b.Index)<<32 ^ uint64(attempt)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		d += time.Duration(h % uint64(d/2+1))
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// failoverNode picks where the next attempt of block b runs after a
// failure on cur: an untried healthy replica holder (ring order from
// cur, so consecutive failovers walk the replica set), else any
// untried healthy node, else cur itself (retry in place — e.g. a
// transient fault on the only holder).
func (e *Engine) failoverNode(b dfs.BlockID, cur *Node, tried map[dfs.NodeID]bool) *Node {
	n := len(e.cluster.nodes)
	for off := 1; off < n; off++ {
		cand := e.cluster.nodes[(int(cur.ID)+off)%n]
		if !tried[cand.ID] && e.cluster.Healthy(cand.ID) && e.cluster.store.HasLocal(b, cand.ID) {
			return cand
		}
	}
	for off := 1; off < n; off++ {
		cand := e.cluster.nodes[(int(cur.ID)+off)%n]
		if !tried[cand.ID] && e.cluster.Healthy(cand.ID) {
			return cand
		}
	}
	return cur
}

// taskCounts carries one map task's counter deltas; they are charged
// only by the attempt that commits, so a failed attempt never distorts
// the job's statistics.
type taskCounts struct {
	inputBytes      int64
	inputRecords    int64
	outputRecords   int64
	outputBytes     int64
	combineRecords  int64
	combinerApplied bool
}

// commitMapTask charges the task's counters and merges its output into
// the job's shuffle space.
func (e *Engine) commitMapTask(job *Running, parts [][]KV, counts taskCounts) error {
	c := job.Counters
	c.Add(CounterMapTasks, 1)
	c.Add(CounterMapInputBytes, counts.inputBytes)
	if counts.inputRecords > 0 {
		c.Add(CounterMapInputRecords, counts.inputRecords)
	}
	c.Add(CounterMapOutputRecords, counts.outputRecords)
	c.Add(CounterMapOutputBytes, counts.outputBytes)
	if counts.combinerApplied {
		c.Add(CounterCombineOutRecords, counts.combineRecords)
	}
	return job.addIntermediate(parts)
}

// Finish runs the job's reduce phase over everything its map tasks
// produced and returns the completed result. A job must be finished
// exactly once, after its final map round.
func (e *Engine) Finish(job *Running) (*Result, error) {
	return e.FinishDrained(job, job.Seal())
}

// FinishDrained completes a job whose shuffle space was already sealed
// (see Running.Seal) and returns the final result. The staged runtime
// seals at the end of the job's last scan stage and runs this
// concurrently with later rounds' maps. One reduce task per partition,
// each sorting its records in place, run concurrently, the first error
// winning; then the sorted outputs are merged into one slice and the
// reduce counters charged.
func (e *Engine) FinishDrained(job *Running, parts [][]KV) (*Result, error) {
	outputs := make([][]KV, len(parts))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for p, records := range parts {
		wg.Add(1)
		go func(p int, records []KV) {
			defer wg.Done()
			job.Counters.Add(CounterReduceInputRecords, int64(len(records)))
			out, err := ReduceInPlace(records, job.Spec.Reducer)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("job %q partition %d: %w", job.Spec.Name, p, err)
				return
			}
			outputs[p] = out
		}(p, records)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	merged := MergeSorted(outputs)
	job.Counters.Add(CounterReduceTasks, int64(len(parts)))
	job.Counters.Add(CounterReduceOutRecords, int64(len(merged)))
	job.Counters.Add(CounterReduceOutBytes, kvBytes(merged))
	return &Result{Name: job.Spec.Name, Output: merged, Counters: job.Counters}, nil
}

// RunJob executes a single job start to finish: one map round over all
// of its input blocks, then the reduce phase.
func (e *Engine) RunJob(spec JobSpec) (*Result, error) {
	results, err := e.RunMerged([]JobSpec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunMerged executes several jobs over the same input file as one
// merged batch: every block is scanned once and feeds all jobs
// (MRShare-style whole-file shared scan). Results are returned in spec
// order.
func (e *Engine) RunMerged(specs []JobSpec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mapreduce: RunMerged with no jobs")
	}
	file := specs[0].File
	jobs := make([]*Running, len(specs))
	for i, spec := range specs {
		if spec.File != file {
			return nil, fmt.Errorf("mapreduce: merged jobs must share an input file: %q vs %q", spec.File, file)
		}
		job, err := NewRunning(spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	f, err := e.cluster.store.File(file)
	if err != nil {
		return nil, err
	}
	if _, err := e.MapRound(f.Blocks(), jobs); err != nil {
		return nil, err
	}
	results := make([]*Result, len(jobs))
	for i, job := range jobs {
		res, err := e.Finish(job)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// kvBytes returns the payload size of records (keys + values).
func kvBytes(kvs []KV) int64 {
	var n int64
	for _, kv := range kvs {
		n += int64(len(kv.Key) + len(kv.Value))
	}
	return n
}
