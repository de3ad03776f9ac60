package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// DynamicS3 is the adaptive variant of the Shared Scan Scheduler: it
// schedules at block granularity and computes each round's segment
// size from the currently available map slots (§IV-B "dynamically
// computing the segment size according to the available resources",
// §IV-D2 "the corresponding segment size will be shrunk or extended").
// A SlotChecker supplies the available-node list; without one, every
// node is always available and DynamicS3 degenerates to S3 with the
// ideal one-block-per-slot segments.
//
// Rounds are clipped so no job ever scans a block twice: a round never
// extends past the file end nor past the completion boundary of any
// active job. All other S^3 semantics (circular scan, sub-job
// alignment, per-round merged sub-jobs) are unchanged.
type DynamicS3 struct {
	file         *dfs.File
	nodes        []dfs.NodeID
	slotsPerNode int
	checker      *SlotChecker
	log          *trace.Log

	cursor int // next block index to schedule
	active []*dynJob
	seen   map[scheduler.JobID]bool // live jobs

	inFlight    bool
	inFlightLen int // blocks in the in-flight round
	launchedFor map[scheduler.JobID]bool
}

type dynJob struct {
	meta       scheduler.JobMeta
	startBlock int
	remaining  int // blocks left to process
}

var _ scheduler.Scheduler = (*DynamicS3)(nil)

// NewDynamic builds a DynamicS3 over file for a cluster of the given
// nodes with slotsPerNode map slots each. checker and log may be nil.
func NewDynamic(file *dfs.File, nodes []dfs.NodeID, slotsPerNode int, checker *SlotChecker, log *trace.Log) (*DynamicS3, error) {
	if file == nil || file.NumBlocks == 0 {
		return nil, fmt.Errorf("core: DynamicS3 needs a non-empty file")
	}
	if len(nodes) == 0 || slotsPerNode <= 0 {
		return nil, fmt.Errorf("core: DynamicS3 needs nodes (%d) and positive slots per node (%d)", len(nodes), slotsPerNode)
	}
	ns := make([]dfs.NodeID, len(nodes))
	copy(ns, nodes)
	return &DynamicS3{
		file:         file,
		nodes:        ns,
		slotsPerNode: slotsPerNode,
		checker:      checker,
		log:          log,
		seen:         make(map[scheduler.JobID]bool),
	}, nil
}

// Name implements Scheduler.
func (d *DynamicS3) Name() string { return "s3-dynamic" }

// Submit implements Scheduler.
func (d *DynamicS3) Submit(job scheduler.JobMeta, at vclock.Time) error {
	if d.seen[job.ID] {
		return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
	}
	if job.File != d.file.Name {
		return fmt.Errorf("%w: job %d reads %q, scheduler is for %q", scheduler.ErrWrongFile, job.ID, job.File, d.file.Name)
	}
	d.seen[job.ID] = true
	start := d.cursor
	if d.inFlight {
		start = (d.cursor + d.inFlightLen) % d.file.NumBlocks
	}
	d.active = append(d.active, &dynJob{
		meta:       job.Normalized(),
		startBlock: start,
		remaining:  d.file.NumBlocks,
	})
	d.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "s3-dynamic from block %d of %d", start, d.file.NumBlocks)
	return nil
}

// NextRound implements Scheduler. The round's segment is sized to the
// available slots at this instant.
func (d *DynamicS3) NextRound(now vclock.Time) (scheduler.Round, bool) {
	if d.inFlight {
		panic("core: DynamicS3.NextRound called with a round in flight")
	}
	if len(d.active) == 0 {
		return scheduler.Round{}, false
	}
	avail := d.nodes
	if d.checker != nil {
		avail = d.checker.Available(d.nodes, now)
	}
	size := len(avail) * d.slotsPerNode
	// Clip: never past file end (a round is a contiguous block run)…
	if rest := d.file.NumBlocks - d.cursor; size > rest {
		size = rest
	}
	// …and never past any active job's completion boundary, so no job
	// scans a block twice.
	for _, j := range d.active {
		if j.remaining < size {
			size = j.remaining
		}
	}

	blocks := make([]dfs.BlockID, size)
	for i := range blocks {
		blocks[i] = dfs.BlockID{File: d.file.Name, Index: d.cursor + i}
	}
	jobs := make([]scheduler.JobMeta, len(d.active))
	var completes []scheduler.JobID
	launched := make(map[scheduler.JobID]bool, len(d.active))
	for i, j := range d.active {
		jobs[i] = j.meta
		launched[j.meta.ID] = true
		if j.remaining == size {
			completes = append(completes, j.meta.ID)
		}
	}
	nodesCopy := make([]dfs.NodeID, len(avail))
	copy(nodesCopy, avail)

	d.inFlight = true
	d.inFlightLen = size
	d.launchedFor = launched
	d.log.Addf(now, trace.RoundLaunched, -1, -1,
		"s3-dynamic blocks [%d,%d) on %d node(s), %d job(s)", d.cursor, d.cursor+size, len(avail), len(jobs))
	return scheduler.Round{
		Segment:      -1,
		Blocks:       blocks,
		Jobs:         jobs,
		Completes:    completes,
		FreshJobs:    1,
		SubJobReduce: true,
		Nodes:        nodesCopy,
	}, true
}

// RoundDone implements Scheduler.
func (d *DynamicS3) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	if !d.inFlight {
		panic("core: DynamicS3.RoundDone without a round in flight")
	}
	d.inFlight = false
	d.log.Addf(now, trace.RoundFinished, -1, -1, "s3-dynamic %d blocks", len(r.Blocks))

	var done []scheduler.JobID
	remaining := d.active[:0]
	for _, j := range d.active {
		if !d.launchedFor[j.meta.ID] {
			remaining = append(remaining, j)
			continue
		}
		j.remaining -= len(r.Blocks)
		if j.remaining < 0 {
			panic(fmt.Sprintf("core: job %d overshot its block budget", j.meta.ID))
		}
		if j.remaining == 0 {
			done = append(done, j.meta.ID)
			d.log.Addf(now, trace.JobCompleted, int(j.meta.ID), -1, "s3-dynamic started at block %d", j.startBlock)
			delete(d.seen, j.meta.ID)
			continue
		}
		remaining = append(remaining, j)
	}
	for i := len(remaining); i < len(d.active); i++ {
		d.active[i] = nil
	}
	d.active = remaining
	d.launchedFor = nil
	d.cursor = (d.cursor + len(r.Blocks)) % d.file.NumBlocks
	return done
}

// PendingJobs implements Scheduler.
func (d *DynamicS3) PendingJobs() int { return len(d.active) }
