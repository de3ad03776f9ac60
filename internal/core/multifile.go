package core

import (
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// MultiFile generalizes S^3 beyond the paper's single-input-file
// context (§III-A): scheduler.Arbiter over one S^3 Job Queue Manager
// per registered file. The file whose waiting jobs hold the highest
// priority goes first (the §VI "job priorities" policy) and ties rotate
// round-robin, so no file starves. Within a file's queue full S^3
// semantics apply: every active job on that file shares every scheduled
// segment scan. On top of the arbiter MultiFile adds what only S^3
// queues have: scan hints — a file registered mid-run (AddPlan: how a
// DAG stage's output joins the rotation) hints the same cache as the
// first plans — and snapshot/restore.
type MultiFile struct {
	*scheduler.Arbiter[*S3]
	hinter ScanHinter
}

var (
	_ scheduler.Recoverable   = (*MultiFile)(nil)
	_ scheduler.Snapshottable = (*MultiFile)(nil)
	_ scheduler.PlanRegistrar = (*MultiFile)(nil)
)

// NewMultiFile builds a multi-file scheduler over the given segment
// plans (one per file). log may be nil and is shared by all queues.
func NewMultiFile(plans []*dfs.SegmentPlan, log *trace.Log) (*MultiFile, error) {
	m := &MultiFile{}
	build := func(p *dfs.SegmentPlan, _ int) (*S3, error) { // S^3 admits continuously: the reader count is advisory
		q := New(p, log)
		q.SetScanHinter(m.hinter)
		return q, nil
	}
	arb, err := scheduler.NewArbiter("s3-multifile", plans, build, (*S3).rank)
	if err != nil {
		return nil, err
	}
	m.Arbiter = arb
	return m, nil
}

// rank is the arbiter's view of a queue: runnable while it holds active
// jobs, as urgent as the most urgent of them.
func (s *S3) rank() (priority int, runnable bool) {
	for i, js := range s.active {
		if i == 0 || js.Meta.Priority > priority {
			priority = js.Meta.Priority
		}
	}
	return priority, len(s.active) > 0
}

// SetScanHinter forwards cache guidance from every file's queue to h:
// each queue hints independently as its own cursor advances, and the
// hints carry the file name, so one cache can track the pin windows of
// all registered files at once.
func (m *MultiFile) SetScanHinter(h ScanHinter) {
	m.hinter = h
	for _, file := range m.Files() {
		q, _ := m.Queue(file)
		q.SetScanHinter(h)
	}
}

// StateSnapshot implements scheduler.Snapshottable: one queue snapshot
// per registered file plus the round-robin rotation pointer.
func (m *MultiFile) StateSnapshot() (scheduler.Snapshot, error) {
	return m.SnapshotQueues((*S3).Snapshot)
}

// RestoreState implements scheduler.Snapshottable. The scheduler must
// be freshly constructed: restore replaces state, it does not merge.
func (m *MultiFile) RestoreState(snap scheduler.Snapshot) error {
	return m.RestoreQueues(snap, (*S3).restoreQueue)
}
