// Package sim is the discrete-event cluster simulator used to
// reproduce the paper's 40-node timing experiments at full scale in
// milliseconds. It supplies a runtime.Executor whose round durations
// come from a calibrated cost model instead of real computation.
//
// The model charges exactly the quantities the paper's discussion
// identifies as the levers: sequential scan cost per block (shared
// across a batch), per-job map computation, per-task launch and
// communication overhead (which penalizes small blocks, §V-F), a
// per-round sub-job initialization overhead (which penalizes S^3's
// extra rounds in dense patterns, §V-D), a sharing penalty for merged
// processing (Figure 3's combined-job overhead), and per-job reduce
// work.
package sim

import (
	"fmt"
	"math"

	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Node is one simulated worker machine.
type Node struct {
	ID int
	// Speed is the node's relative processing rate; 1.0 is nominal,
	// 0.5 takes twice as long per block.
	Speed float64
}

// Cluster is a set of simulated nodes, each contributing the same
// number of map slots (the paper configures one per node).
type Cluster struct {
	nodes        []*Node
	slotsPerNode int
}

// NewCluster builds n nominal-speed nodes with slotsPerNode map slots
// each.
func NewCluster(n, slotsPerNode int) *Cluster {
	if n <= 0 || slotsPerNode <= 0 {
		panic(fmt.Sprintf("sim: invalid cluster %d nodes x %d slots", n, slotsPerNode))
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{ID: i, Speed: 1.0}
	}
	return &Cluster{nodes: nodes, slotsPerNode: slotsPerNode}
}

// Nodes returns the cluster's nodes; callers may adjust Speed to model
// heterogeneity or degradation.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// SetSpeed adjusts one node's relative speed.
func (c *Cluster) SetSpeed(id int, speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("sim: node %d speed must be positive, got %v", id, speed))
	}
	c.nodes[id].Speed = speed
}

// CostModel holds the calibration knobs, all in seconds and megabytes.
// The JSON tags are the cost-model vocabulary of the versioned workload
// file format (internal/workload): a workload file can pin the exact
// calibration its timings were produced under, so a benchmark report is
// reproducible from the workload file alone.
type CostModel struct {
	// ScanMBps is the sequential scan rate of one map slot.
	ScanMBps float64 `json:"scanMBps"`
	// MapMBps is the map-function processing rate for a weight-1 job;
	// a job of weight w processes at MapMBps/w.
	MapMBps float64 `json:"mapMBps,omitempty"`
	// TaskOverhead is the fixed cost of launching one map task per
	// block (JVM/task setup, heartbeat latency). A merged batch runs
	// one physical task per block — all jobs share this cost — which
	// is why small blocks hurt every scheme (§V-F).
	TaskOverhead float64 `json:"taskOverhead,omitempty"`
	// DispatchPerJob is the per-job, per-block cost of dispatching a
	// block's records to one more mapper inside a merged task.
	DispatchPerJob float64 `json:"dispatchPerJob,omitempty"`
	// RoundOverhead is the fixed coordination cost of one wave of map
	// tasks, paid by every scheme on every round.
	RoundOverhead float64 `json:"roundOverhead,omitempty"`
	// JobSetup is the cost of submitting one MapReduce job to the
	// framework. FIFO pays it once per job, MRShare once per merged
	// batch, but S^3 pays it on *every* round, because each merged
	// sub-job is a freshly initialized job (§IV-D3); this is the
	// communication cost that lets MRShare beat S^3 in dense patterns
	// (§V-D).
	JobSetup float64 `json:"jobSetup,omitempty"`
	// SharePenalty is the extra fraction of a block's scan cost paid
	// per additional job sharing the scan (merged-record dispatch).
	SharePenalty float64 `json:"sharePenalty,omitempty"`
	// TagPenalty is the per-job per-block cost of MRShare's merged
	// meta-job pipeline: tagging each intermediate record with job ids
	// and demultiplexing them in reduce. Only Tagged rounds pay it.
	TagPenalty float64 `json:"tagPenalty,omitempty"`
	// ReducePerRound is the reduce-phase *work* one round's worth of a
	// weight-1 job's intermediate data costs. Every scheme processes
	// the same data, so every scheme pays it on every round.
	ReducePerRound float64 `json:"reducePerRound,omitempty"`
	// RemotePenalty is the extra fraction of a block's scan cost paid
	// when none of the block's replica holders participate in the
	// round — the data must cross the network (the locality issue
	// §II-C raises for HOD). Slot checking therefore has a real
	// trade-off: excluding a slow node strands its blocks.
	RemotePenalty float64 `json:"remotePenalty,omitempty"`
	// ReduceSetup is the fixed cost of running one reduce phase
	// (task setup, output commit) scaled by the job's reduce weight.
	// S^3 pays it per job on *every* round — each sub-job is a
	// complete MapReduce job with its own reduce (§IV-D3) — while
	// FIFO and MRShare pay it once, on the round that completes the
	// job. This asymmetry is why heavy reduce output (200x, §V-E)
	// erodes S^3's advantage.
	ReduceSetup float64 `json:"reduceSetup,omitempty"`
	// MaterializeSecPerMB is the cost of writing one megabyte of a
	// finished stage's reduce output back into the store as a derived
	// file (replication included) — the gap between a DAG stage
	// completing and its dependents becoming ready. Zero makes
	// materialization free, which keeps pre-DAG workload files priced
	// exactly as before.
	MaterializeSecPerMB float64 `json:"materializeSecPerMB,omitempty"`
}

// MaterializeDelay prices writing a derived file of the given size.
func (m CostModel) MaterializeDelay(bytes int64) vclock.Duration {
	if m.MaterializeSecPerMB <= 0 || bytes <= 0 {
		return 0
	}
	return vclock.Duration(float64(bytes) / (1 << 20) * m.MaterializeSecPerMB)
}

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	if m.ScanMBps <= 0 {
		return fmt.Errorf("sim: ScanMBps must be positive, got %v", m.ScanMBps)
	}
	if m.MapMBps < 0 || m.TaskOverhead < 0 || m.DispatchPerJob < 0 || m.RoundOverhead < 0 ||
		m.JobSetup < 0 || m.SharePenalty < 0 || m.TagPenalty < 0 || m.RemotePenalty < 0 ||
		m.ReducePerRound < 0 || m.ReduceSetup < 0 || m.MaterializeSecPerMB < 0 {
		return fmt.Errorf("sim: cost model has negative component: %+v", m)
	}
	return nil
}

// Stats accumulates the physical work the simulator charged.
type Stats struct {
	Rounds        int
	BlocksScanned int64 // physical block scans (cached reads excluded)
	MapTasks      int64 // per-job per-block tasks
	RemoteBlocks  int64 // blocks scanned with no replica holder in the round
	SimTime       vclock.Duration
}

// Executor prices rounds with the cost model. It implements
// runtime.Executor.
type Executor struct {
	cluster *Cluster
	store   *dfs.Store
	model   CostModel

	stats Stats

	// Failure-model state (see faults.go). fm is nil when no model is
	// installed.
	fm       *FaultModel
	roundSeq int
	fstats   metrics.FaultStats

	// cache is the warm-set pricing model (see cache.go); nil when
	// cache-aware pricing is off.
	cache *simCache
}

// NewExecutor builds a cost-model executor. It panics on an invalid
// model so experiment misconfiguration fails loudly at setup.
func NewExecutor(cluster *Cluster, store *dfs.Store, model CostModel) *Executor {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Executor{cluster: cluster, store: store, model: model}
}

// Stats returns the accumulated work counters.
func (e *Executor) Stats() Stats { return e.stats }

// ExecRound implements runtime.Executor.
func (e *Executor) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapSec, redSec, retrySec, err := e.price(r)
	if err != nil {
		return 0, err
	}
	return vclock.Duration(mapSec + redSec + retrySec), nil
}

// ExecStages implements runtime.StageTimer: the round's price split
// into its map stage, which retried scans lengthen, and its reduce
// stage.
func (e *Executor) ExecStages(r scheduler.Round) (mapDur, redDur vclock.Duration, err error) {
	mapSec, redSec, retrySec, err := e.price(r)
	if err != nil {
		return 0, 0, err
	}
	return vclock.Duration(mapSec + retrySec), vclock.Duration(redSec), nil
}

// price computes the round's map-stage and reduce-stage costs in
// seconds, rolls its transient faults under the fault model (retrySec
// is what their retries add to the map stage; a round whose block
// exhausts its attempts is lost) and charges the work counters.
func (e *Executor) price(r scheduler.Round) (mapSec, redSec, retrySec float64, err error) {
	if len(r.Jobs) == 0 || len(r.Blocks) == 0 {
		return 0, 0, 0, fmt.Errorf("sim: empty round (jobs=%d blocks=%d)", len(r.Jobs), len(r.Blocks))
	}
	used := e.cluster.nodes
	if len(r.Nodes) > 0 {
		// The scheduler restricted the round to specific nodes
		// (scheduler-side slot checking, §IV-D1).
		used = make([]*Node, 0, len(r.Nodes))
		for _, id := range r.Nodes {
			if int(id) < 0 || int(id) >= len(e.cluster.nodes) {
				return 0, 0, 0, fmt.Errorf("sim: round names unknown node %d", id)
			}
			used = append(used, e.cluster.nodes[id])
		}
	}
	if retrySec, err = e.rollFaults(r); err != nil {
		return 0, 0, 0, err
	}

	usedSet := make(map[int]bool, len(used))
	for _, nd := range used {
		usedSet[nd.ID] = true
	}

	// All blocks of a segment share the nominal block size; price each
	// block individually anyway so ragged final segments are exact.
	n := float64(len(r.Jobs))
	var remote, cached int64
	var perBlockTotal float64 // summed nominal processing time of all blocks
	for _, b := range r.Blocks {
		f, ferr := e.store.File(b.File)
		if ferr != nil {
			return 0, 0, 0, ferr
		}
		size := f.BlockLen(b.Index)
		mb := float64(size) / (1 << 20)
		scanMB := mb
		scanFactor := 1 + e.model.SharePenalty*(n-1)
		if e.cacheAccess(b, size) {
			// Warm block: a memory read at a fraction of the disk scan
			// cost, never remote (nothing crosses the network). The
			// share penalty still applies — merged-record dispatch
			// happens regardless of where the bytes came from.
			scanMB *= e.cache.frac
			cached++
		} else if e.model.RemotePenalty > 0 && !e.blockLocal(b, usedSet) {
			scanFactor += e.model.RemotePenalty
			remote++
		}
		t := scanMB/e.model.ScanMBps*scanFactor + e.model.TaskOverhead
		for _, j := range r.Jobs {
			if e.model.MapMBps > 0 {
				t += mb / e.model.MapMBps * j.Weight
			}
			t += e.model.DispatchPerJob
			if r.Tagged {
				t += e.model.TagPenalty
			}
		}
		perBlockTotal += t
	}
	perBlockAvg := perBlockTotal / float64(len(r.Blocks))

	// Spread blocks across the usable slots in waves; the slowest
	// participating node paces every wave (Hadoop's wave barrier).
	slots := len(used) * e.cluster.slotsPerNode
	waves := int(math.Ceil(float64(len(r.Blocks)) / float64(slots)))
	slowest := used[0].Speed
	for _, nd := range used {
		if nd.Speed < slowest {
			slowest = nd.Speed
		}
	}
	mapSec = e.model.RoundOverhead + e.model.JobSetup*float64(r.FreshJobs) + float64(waves)*perBlockAvg/slowest

	// Readahead bill: prefetch issued since the last round runs under
	// that round's reduce stage; only the part the overlap window could
	// not hide delays this round's start.
	if c := e.cache; c != nil {
		if spill := c.prefetchSec - c.prevRedSec; spill > 0 {
			mapSec += spill
		}
		c.prefetchSec = 0
	}

	// Reduce work: one round's worth of every job's intermediate data
	// is reduced, whenever its reduce phase eventually runs.
	for _, j := range r.Jobs {
		redSec += e.model.ReducePerRound * j.ReduceWeight
	}
	// Reduce-phase setup: per job per round for S^3 sub-jobs (each is
	// a full MapReduce job), once per job at completion otherwise.
	if r.SubJobReduce {
		for _, j := range r.Jobs {
			redSec += e.model.ReduceSetup * j.ReduceWeight
		}
	} else if len(r.Completes) > 0 {
		byID := make(map[scheduler.JobID]scheduler.JobMeta, len(r.Jobs))
		for _, j := range r.Jobs {
			byID[j.ID] = j
		}
		for _, id := range r.Completes {
			redSec += e.model.ReduceSetup * byID[id].ReduceWeight
		}
	}

	if e.cache != nil {
		e.cache.prevRedSec = redSec
	}

	e.stats.Rounds++
	e.stats.BlocksScanned += int64(len(r.Blocks)) - cached
	e.stats.MapTasks += int64(len(r.Blocks) * len(r.Jobs))
	e.stats.RemoteBlocks += remote
	e.stats.SimTime += vclock.Duration(mapSec + redSec)
	return mapSec, redSec, retrySec, nil
}

// blockLocal reports whether any replica holder of b is in the round's
// node set.
func (e *Executor) blockLocal(b dfs.BlockID, usedSet map[int]bool) bool {
	for _, holder := range e.store.Locations(b) {
		if usedSet[int(holder)] {
			return true
		}
	}
	return false
}
