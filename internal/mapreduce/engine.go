package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Speculative counts duplicate block attempts launched by
	// speculative execution (0 when speculation is off).
	Speculative int
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

// Fault event kinds reported to the engine's fault observer.
const (
	FaultAttemptFailed = "attempt-failed"
	FaultNodeDown      = "node-down"
)

// FaultEvent notifies the observer of one fault-handling action inside
// a map round, so callers can surface recovery in traces.
type FaultEvent struct {
	Kind    string // FaultAttemptFailed or FaultNodeDown
	Block   dfs.BlockID
	Node    dfs.NodeID
	Attempt int // 1-based attempt number (0 for node events)
	Err     error
}

// Task event kinds reported to the engine's task observer.
const (
	// TaskCommitted: a map attempt finished and won the commit — its
	// output is the one every job in the batch sees for the block.
	TaskCommitted = "task-committed"
	// TaskSpeculated: a straggler attempt was duplicated on another
	// node (speculative execution).
	TaskSpeculated = "task-speculated"
)

// TaskEvent notifies the observer of one map-task lifecycle action
// inside a round, so callers can surface per-attempt execution in
// traces. Dur is the committed attempt's measured wall duration (zero
// for TaskSpeculated).
type TaskEvent struct {
	Kind    string // TaskCommitted or TaskSpeculated
	Block   dfs.BlockID
	Node    dfs.NodeID
	Attempt int // 1-based attempt number that committed (1 for speculative duplicates)
	Local   bool
	Jobs    int // jobs sharing the committed scan
	Dur     time.Duration
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
	// speculation, when positive, enables Hadoop-style speculative
	// execution: once a round's tasks start finishing, a task running
	// longer than speculation x the median completed-task duration is
	// duplicated on another node and the first finisher wins. The
	// paper's experiments disable speculation (§V-A), which is also
	// this engine's default.
	speculation  float64
	retry        RetryPolicy
	observer     func(FaultEvent)
	taskObserver func(TaskEvent)
}

// NewEngine returns an engine over the cluster. Speculative execution
// is off and the retry policy is DefaultRetryPolicy (no retries),
// matching the paper's configuration.
func NewEngine(cluster *Cluster) *Engine {
	return &Engine{cluster: cluster, retry: DefaultRetryPolicy()}
}

// EnableSpeculation turns on speculative re-execution of straggler
// tasks: a task is duplicated when it has run longer than factor times
// the median duration of the round's completed tasks. factor must be
// at least 1.
func (e *Engine) EnableSpeculation(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("mapreduce: speculation factor %v < 1", factor))
	}
	e.speculation = factor
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

// SetFaultObserver installs a callback invoked on fault-handling
// events (failed attempts, node blacklisting). The callback must be
// safe for concurrent use; nil clears it.
func (e *Engine) SetFaultObserver(fn func(FaultEvent)) { e.observer = fn }

func (e *Engine) notify(ev FaultEvent) {
	if e.observer != nil {
		e.observer(ev)
	}
}

// SetTaskObserver installs a callback invoked on task lifecycle events
// (attempt commits, speculative launches). The callback must be safe
// for concurrent use; nil clears it.
func (e *Engine) SetTaskObserver(fn func(TaskEvent)) { e.taskObserver = fn }

func (e *Engine) notifyTask(ev TaskEvent) {
	if e.taskObserver != nil {
		e.taskObserver(ev)
	}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// MapRound scans each block once (twice if a speculative duplicate is
// launched) and feeds its contents to the mapper of every job in jobs,
// shuffling each job's output into its own reduce partitions. Tasks
// run concurrently, bounded by per-node map slots, preferring
// data-local placement. Exactly one attempt per block commits its
// output, so results are identical with or without speculation.
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
	assignments := e.cluster.assignBlocks(blocks)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		roundErr error
		stats    RoundStats
	)
	stats.Blocks = len(blocks)
	jobErrs := make([]error, len(jobs))
	jobFailed := make([]bool, len(jobs))

	committed := make([]bool, len(assignments))  // block slot -> output committed
	speculated := make([]bool, len(assignments)) // duplicate already launched
	started := make([]time.Time, len(assignments))
	var durations []time.Duration // completed attempt durations
	remaining := len(assignments)
	consecFails := make(map[dfs.NodeID]int)

	failRound := func(err error) {
		mu.Lock()
		if roundErr == nil {
			roundErr = err
		}
		mu.Unlock()
		cancel()
	}

	// failJob drops job j from the rest of the round with its first error.
	failJob := func(j int, block dfs.BlockID, err error) {
		mu.Lock()
		if !jobFailed[j] {
			jobFailed[j] = true
			jobErrs[j] = fmt.Errorf("job %q block %v: %w", jobs[j].Spec.Name, block, err)
		}
		mu.Unlock()
	}

	// errLostRace marks an attempt that lost the commit race to a
	// duplicate — not a failure.
	errLostRace := errors.New("lost commit race")

	// tryOnce runs one execution of block slot i on node asg.node and
	// commits if it finishes first. Job-level failures are recorded in
	// jobErrs and absorbed; only read/infrastructure errors are
	// returned.
	tryOnce := func(i int, asg assignment, attempt int) error {
		if err := asg.node.acquireCtx(ctx); err != nil {
			return err
		}
		defer asg.node.release()
		begin := time.Now()

		data, err := e.cluster.store.ReadBlockAt(asg.block, asg.node.ID)
		if err != nil {
			mu.Lock()
			stats.FailedAttempts++
			consecFails[asg.node.ID]++
			fails := consecFails[asg.node.ID]
			mu.Unlock()
			e.notify(FaultEvent{Kind: FaultAttemptFailed, Block: asg.block, Node: asg.node.ID, Attempt: attempt, Err: err})
			if k := e.retry.BlacklistAfter; k > 0 && fails == k && e.cluster.Healthy(asg.node.ID) {
				e.cluster.SetHealth(asg.node.ID, false)
				mu.Lock()
				stats.Blacklisted++
				mu.Unlock()
				e.notify(FaultEvent{Kind: FaultNodeDown, Node: asg.node.ID, Err: err})
			}
			return err
		}
		mu.Lock()
		consecFails[asg.node.ID] = 0
		mu.Unlock()

		type jobOut struct {
			parts  [][]KV // nil: the job failed and is isolated from the batch
			counts taskCounts
		}
		outs := make([]jobOut, len(jobs))
		for j, job := range jobs {
			mu.Lock()
			skip := jobFailed[j]
			mu.Unlock()
			if skip {
				continue
			}
			parts, counts, err := mapTask(asg.block, data, job.Spec.Mapper, job.Spec.Combiner, job.Spec.reduceWidth())
			if err != nil {
				failJob(j, asg.block, err)
				continue
			}
			if rc, ok := job.Spec.Mapper.(InputRecordCounter); ok {
				counts.inputRecords = rc.CountInputRecords(data)
			}
			outs[j] = jobOut{parts: parts, counts: counts}
		}

		elapsed := time.Since(begin)
		mu.Lock()
		if committed[i] || roundErr != nil {
			mu.Unlock()
			return errLostRace // a duplicate won, or the round already failed
		}
		committed[i] = true
		remaining--
		durations = append(durations, elapsed)
		stats.BytesScanned += int64(len(data))
		stats.MapTasks += len(jobs)
		if asg.local {
			stats.LocalTasks++
		}
		mu.Unlock()
		e.notifyTask(TaskEvent{Kind: TaskCommitted, Block: asg.block, Node: asg.node.ID,
			Attempt: attempt, Local: asg.local, Jobs: len(jobs), Dur: elapsed})

		for j, job := range jobs {
			if outs[j].parts == nil {
				continue
			}
			if err := e.commitMapTask(job, outs[j].parts, outs[j].counts); err != nil {
				failJob(j, asg.block, err)
			}
		}
		return nil
	}

	// runBlock drives block slot i's retry chain: attempts with
	// exponential backoff, failing over to a surviving replica holder
	// after each failure. The chain ends on commit, lost race, cancel,
	// or attempt exhaustion (which loses the round).
	runBlock := func(i int, asg assignment) {
		defer wg.Done()
		cur := asg
		tried := map[dfs.NodeID]bool{}
		for attempt := 1; ; attempt++ {
			err := tryOnce(i, cur, attempt)
			if err == nil || errors.Is(err, errLostRace) {
				return
			}
			if ctx.Err() != nil {
				return // round cancelled; its error is already set
			}
			tried[cur.node.ID] = true
			if attempt >= e.retry.MaxAttempts {
				failRound(&BlockLostError{Block: cur.block, Attempts: attempt, Err: err})
				return
			}
			mu.Lock()
			stats.Retries++
			mu.Unlock()
			if !e.sleepBackoff(ctx, cur.block, attempt) {
				return
			}
			next := e.failoverNode(cur.block, cur.node, tried)
			cur = assignment{block: cur.block, node: next, local: e.cluster.store.HasLocal(cur.block, next.ID)}
		}
	}

	now := time.Now()
	for i, asg := range assignments {
		started[i] = now
		wg.Add(1)
		go runBlock(i, asg)
	}

	// Speculation monitor: once half the blocks have finished, any
	// block running longer than factor x the median completed duration
	// gets a duplicate attempt on another node. The poll interval backs
	// off to a fraction of the median task duration, so fast rounds get
	// tight straggler detection while slow rounds don't busy-spin. The
	// monitor exits promptly when the round completes, fails, or is
	// cancelled.
	if e.speculation > 0 && len(assignments) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poll := 200 * time.Microsecond
			timer := time.NewTimer(poll)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				mu.Lock()
				if remaining == 0 || roundErr != nil {
					mu.Unlock()
					return
				}
				if len(durations)*2 < len(assignments) {
					mu.Unlock()
					timer.Reset(poll)
					continue
				}
				med := medianDuration(durations)
				threshold := time.Duration(e.speculation * float64(med))
				poll = med / 8
				if poll < 200*time.Microsecond {
					poll = 200 * time.Microsecond
				} else if poll > 10*time.Millisecond {
					poll = 10 * time.Millisecond
				}
				var specEvents []TaskEvent
				for i, asg := range assignments {
					if committed[i] || speculated[i] {
						continue
					}
					if time.Since(started[i]) > threshold {
						speculated[i] = true
						stats.Speculative++
						other := e.speculativeNode(asg.block, asg.node)
						dup := assignment{block: asg.block, node: other, local: e.cluster.store.HasLocal(asg.block, other.ID)}
						specEvents = append(specEvents, TaskEvent{Kind: TaskSpeculated, Block: asg.block,
							Node: other.ID, Attempt: 1, Local: dup.local, Jobs: len(jobs)})
						wg.Add(1)
						go func(i int, dup assignment) {
							defer wg.Done()
							// A failed duplicate is harmless: the
							// original attempt's retry chain still owns
							// the block.
							_ = tryOnce(i, dup, 1)
						}(i, dup)
					}
				}
				mu.Unlock()
				for _, ev := range specEvents {
					e.notifyTask(ev)
				}
				timer.Reset(poll)
			}
		}()
	}

	wg.Wait()
	if roundErr == nil && ctx.Err() != nil {
		roundErr = ctx.Err()
	}
	return stats, jobErrs, roundErr
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

// speculativeNode picks where a duplicate attempt of block b runs when
// its first attempt on cur looks like a straggler: another node holding
// a replica of the block, so the duplicate scans locally. Ring order
// from cur spreads duplicates when several replicas qualify; if no
// other node holds a replica, fall back to cur's ring successor.
func (e *Engine) speculativeNode(b dfs.BlockID, cur *Node) *Node {
	n := len(e.cluster.nodes)
	for off := 1; off < n; off++ {
		cand := e.cluster.nodes[(int(cur.ID)+off)%n]
		if e.cluster.store.HasLocal(b, cand.ID) {
			return cand
		}
	}
	return e.cluster.nodes[(int(cur.ID)+1)%n]
}

// medianDuration returns the median of ds (ds must be non-empty).
func medianDuration(ds []time.Duration) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// taskCounts carries one map task's counter deltas; they are charged
// only by the attempt that commits, so speculative duplicates never
// distort the job's statistics.
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

// ReduceRound drains the job's current shuffle space and runs its
// reduce phase over it, returning the sub-job's partial output (sorted
// by key). The job stays runnable for further map rounds — this is the
// §IV-D3 execution where every merged sub-job is a complete MapReduce
// job, and the caller collects the partial results (§V-G).
func (e *Engine) ReduceRound(job *Running) ([]KV, error) {
	return e.ReduceDrained(job, job.DrainPartitions())
}

// ReduceDrained runs a sub-job's reduce phase over an already-drained
// shuffle snapshot (see Running.DrainPartitions). Draining and reducing
// are separate so a staged runtime can commit the shuffle at the end of
// the scan stage and run the reduce concurrently with the next round's
// maps; the job's live shuffle space keeps accumulating new map output
// in the meantime.
func (e *Engine) ReduceDrained(job *Running, parts [][]KV) ([]KV, error) {
	return e.reduceParts(job, parts, "sub-job partition")
}

// Finish runs the job's reduce phase over everything its map tasks
// produced and returns the completed result. A job must be finished
// exactly once, after its final map round.
func (e *Engine) Finish(job *Running) (*Result, error) {
	return e.FinishDrained(job, job.takePartitions())
}

// FinishDrained completes a job whose shuffle space was already sealed
// (see Running.Seal): it reduces the sealed snapshot and returns the
// final result. The staged runtime seals at the end of the job's last
// scan stage and runs this concurrently with later rounds' maps.
func (e *Engine) FinishDrained(job *Running, parts [][]KV) (*Result, error) {
	all, err := e.reduceParts(job, parts, "partition")
	if err != nil {
		return nil, err
	}
	return &Result{Name: job.Spec.Name, Output: all, Counters: job.Counters}, nil
}

// reduceParts is the reduce phase every caller shares: one reduce task
// per partition, each sorting its drained records in place, run
// concurrently, the first error winning; then the sorted outputs merged
// into one slice and the reduce counters charged.
func (e *Engine) reduceParts(job *Running, parts [][]KV, label string) ([]KV, error) {
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
				firstErr = fmt.Errorf("job %q %s %d: %w", job.Spec.Name, label, p, err)
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
	return merged, nil
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
