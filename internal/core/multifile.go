package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// MultiFile generalizes S^3 beyond the paper's single-input-file
// context (§III-A) — one of the §VI extension directions. It keeps an
// independent S^3 Job Queue Manager per registered file and arbitrates
// the cluster among files one round at a time:
//
//  1. files whose queues hold the highest-priority waiting job go
//     first (the §VI "job priorities" policy);
//  2. ties rotate round-robin, so no file starves.
//
// Within a file's queue, full S^3 semantics apply: every active job on
// that file shares every scheduled segment scan.
type MultiFile struct {
	log    *trace.Log
	queues map[string]*S3
	// rotation holds registered file names in registration order; the
	// round-robin pointer walks it.
	rotation []string
	next     int // rotation index to consider first on the next pick
	seen     map[scheduler.JobID]bool

	inFlight     bool
	inFlightFile string

	// hinter is remembered so files registered mid-run (AddPlan) hint
	// the same cache as the construction-time plans.
	hinter ScanHinter
}

var _ scheduler.Scheduler = (*MultiFile)(nil)

// NewMultiFile builds a multi-file scheduler over the given segment
// plans (one per file). log may be nil and is shared by all queues.
func NewMultiFile(plans []*dfs.SegmentPlan, log *trace.Log) (*MultiFile, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: MultiFile needs at least one segment plan")
	}
	m := &MultiFile{
		log:    log,
		queues: make(map[string]*S3, len(plans)),
		seen:   make(map[scheduler.JobID]bool),
	}
	for _, p := range plans {
		name := p.File().Name
		if _, dup := m.queues[name]; dup {
			return nil, fmt.Errorf("core: MultiFile has two plans for file %q", name)
		}
		m.queues[name] = New(p, log)
		m.rotation = append(m.rotation, name)
	}
	return m, nil
}

// Name implements Scheduler.
func (m *MultiFile) Name() string { return "s3-multifile" }

// AddPlan registers a new file's segment plan mid-run — how a DAG
// stage's materialized output joins the rotation so its consumers can
// share circular scans like any other jobs. The new queue inherits the
// installed scan hinter. expectJobs is the number of jobs expected to
// read the file; S^3 admits jobs continuously, so it is advisory here
// (batch-oriented schedulers size a batch with it). It must not be
// called with a round in flight: the runtime invokes it from job-done
// hooks, which the round protocol runs after RoundDone.
func (m *MultiFile) AddPlan(p *dfs.SegmentPlan, expectJobs int) error {
	if m.inFlight {
		return fmt.Errorf("core: MultiFile.AddPlan with a round in flight")
	}
	name := p.File().Name
	if _, dup := m.queues[name]; dup {
		return fmt.Errorf("core: MultiFile already has a plan for file %q", name)
	}
	q := New(p, m.log)
	if m.hinter != nil {
		q.SetScanHinter(m.hinter)
	}
	m.queues[name] = q
	m.rotation = append(m.rotation, name)
	return nil
}

// Files returns the registered file names in registration order.
func (m *MultiFile) Files() []string {
	out := make([]string, len(m.rotation))
	copy(out, m.rotation)
	return out
}

// Submit implements Scheduler: the job is routed to its file's queue.
func (m *MultiFile) Submit(job scheduler.JobMeta, at vclock.Time) error {
	q, ok := m.queues[job.File]
	if !ok {
		return fmt.Errorf("%w: job %d reads %q, no such file registered", scheduler.ErrWrongFile, job.ID, job.File)
	}
	if m.seen[job.ID] {
		return fmt.Errorf("%w: %d", scheduler.ErrDuplicateJob, job.ID)
	}
	if err := q.Submit(job, at); err != nil {
		return err
	}
	m.seen[job.ID] = true
	return nil
}

// SetScanHinter forwards cache guidance from every file's queue to h:
// each queue hints independently as its own cursor advances, and the
// hints carry the file name, so one cache can track the pin windows of
// all registered files at once.
func (m *MultiFile) SetScanHinter(h ScanHinter) {
	m.hinter = h
	for _, q := range m.queues {
		q.SetScanHinter(h)
	}
}

// maxPriority returns the highest priority among a queue's active
// jobs.
func maxPriority(q *S3) int {
	best := 0
	first := true
	for _, js := range q.Active() {
		if first || js.Meta.Priority > best {
			best = js.Meta.Priority
			first = false
		}
	}
	return best
}

// pick chooses the file to serve next: highest waiting priority, ties
// broken round-robin from m.next.
func (m *MultiFile) pick() (string, bool) {
	bestIdx := -1
	bestPrio := 0
	for off := 0; off < len(m.rotation); off++ {
		i := (m.next + off) % len(m.rotation)
		q := m.queues[m.rotation[i]]
		if q.PendingJobs() == 0 {
			continue
		}
		if p := maxPriority(q); bestIdx == -1 || p > bestPrio {
			bestIdx = i
			bestPrio = p
		}
	}
	if bestIdx == -1 {
		return "", false
	}
	m.next = (bestIdx + 1) % len(m.rotation)
	return m.rotation[bestIdx], true
}

// NextRound implements Scheduler.
func (m *MultiFile) NextRound(now vclock.Time) (scheduler.Round, bool) {
	if m.inFlight {
		panic("core: MultiFile.NextRound called with a round in flight")
	}
	file, ok := m.pick()
	if !ok {
		return scheduler.Round{}, false
	}
	r, ok := m.queues[file].NextRound(now)
	if !ok {
		// A queue with pending jobs always has a round; this is a bug.
		panic(fmt.Sprintf("core: MultiFile queue %q pending but idle", file))
	}
	m.inFlight = true
	m.inFlightFile = file
	return r, true
}

// RoundDone implements Scheduler.
func (m *MultiFile) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	if !m.inFlight {
		panic("core: MultiFile.RoundDone without a round in flight")
	}
	m.inFlight = false
	return m.queues[m.inFlightFile].RoundDone(r, now)
}

// PendingJobs implements Scheduler.
func (m *MultiFile) PendingJobs() int {
	total := 0
	for _, q := range m.queues {
		total += q.PendingJobs()
	}
	return total
}
