package scheduler_test

import (
	"errors"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// namedPlan is makePlan for a caller-chosen file name, so multi-file
// schedulers can register several distinct files.
func namedPlan(t *testing.T, name string, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile(name, numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

func jobOn(id int, file string) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), Name: "j", File: file, Weight: 1, ReduceWeight: 1}
}

func TestMultiFIFORoutesJobsByFile(t *testing.T) {
	f, err := core.NewFIFO([]*dfs.SegmentPlan{
		namedPlan(t, "a", 4, 2), // 2 segments
		namedPlan(t, "b", 6, 2), // 3 segments
	}, trace.MustNew(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Files(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Files() = %v, want [a b]", got)
	}
	if f.Name() != "fifo" {
		t.Fatalf("Name() = %q", f.Name())
	}
	if err := f.Submit(jobOn(1, "b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(2, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if f.PendingJobs() != 2 {
		t.Fatalf("pending = %d, want 2", f.PendingJobs())
	}
	rounds, completed := drain(t, f)
	// Strict FIFO: job 1 scans b's 3 segments first, then job 2 scans
	// a's 2 — no interleaving across files.
	if len(rounds) != 5 {
		t.Fatalf("rounds = %d, want 5", len(rounds))
	}
	wantJobs := []scheduler.JobID{1, 1, 1, 2, 2}
	for i, r := range rounds {
		if len(r.Jobs) != 1 || r.Jobs[0].ID != wantJobs[i] {
			t.Fatalf("round %d jobs = %v, want [%d]", i, r.JobIDs(), wantJobs[i])
		}
	}
	if rounds[0].FreshJobs != 1 || rounds[3].FreshJobs != 1 {
		t.Fatalf("fresh-job marks wrong: %+v", rounds)
	}
	if len(completed) != 2 || completed[0] != 1 || completed[1] != 2 {
		t.Fatalf("completed = %v, want [1 2]", completed)
	}
	if f.PendingJobs() != 0 {
		t.Fatalf("pending after drain = %d", f.PendingJobs())
	}
}

func TestMultiFIFOAddPlanMidRun(t *testing.T) {
	f, err := core.NewFIFO([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "derived"), 0); !errors.Is(err, scheduler.ErrWrongFile) {
		t.Fatalf("submit before AddPlan err = %v, want scheduler.ErrWrongFile", err)
	}
	if err := f.AddPlan(namedPlan(t, "derived", 2, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPlan(namedPlan(t, "derived", 2, 2), 0); err == nil {
		t.Fatal("duplicate AddPlan accepted")
	}
	if err := f.Submit(jobOn(1, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "derived"), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("duplicate submit err = %v, want scheduler.ErrDuplicateJob", err)
	}
	_, completed := drain(t, f)
	if len(completed) != 1 || completed[0] != 1 {
		t.Fatalf("completed = %v", completed)
	}
}

func TestMultiFIFOEmptyConstructor(t *testing.T) {
	if _, err := core.NewFIFO(nil, nil); err == nil {
		t.Fatal("core.NewFIFO accepted zero plans")
	}
}

func TestMultiFIFORequeueReformsRound(t *testing.T) {
	f, err := core.NewFIFO([]*dfs.SegmentPlan{namedPlan(t, "a", 4, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r1, ok := f.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	f.RequeueRound(r1, 1)
	r2, ok := f.NextRound(2)
	if !ok || r2.Segment != r1.Segment {
		t.Fatalf("requeued round = %+v, want segment %d again", r2, r1.Segment)
	}
	f.RoundDone(r2, 3)
}

func TestMultiFIFOProtocolViolationsPanic(t *testing.T) {
	f, err := core.NewFIFO([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	mustPanic(t, "NextRound in flight", func() { f.NextRound(0) })
	f.RoundDone(r, 1)
	mustPanic(t, "RoundDone idle", func() { f.RoundDone(r, 1) })
	mustPanic(t, "RequeueRound idle", func() { f.RequeueRound(r, 1) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	fn()
}

// batchPlans adapts a per-file table to NewMultiMRShare's sizes.
func batchPlans(m map[string][]int) func(string) []int {
	return func(file string) []int { return m[file] }
}

func TestMultiMRShareBatchesPerFile(t *testing.T) {
	m, err := core.NewMultiMRShare([]*dfs.SegmentPlan{
		namedPlan(t, "a", 4, 2), // 2 segments
		namedPlan(t, "b", 4, 2),
	}, batchPlans(map[string][]int{"a": {2}, "b": {1}}), trace.MustNew(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Files(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Files() = %v", got)
	}
	if m.Name() != "mrshare-multifile" {
		t.Fatalf("Name() = %q", m.Name())
	}
	if err := m.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(1, "a"), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := m.Submit(jobOn(2, "nope"), 0); !errors.Is(err, scheduler.ErrWrongFile) {
		t.Fatalf("wrong-file err = %v", err)
	}
	// a's batch needs two jobs; with only one the scheduler is stalled.
	if _, ok := m.NextRound(0); ok {
		t.Fatal("half-filled batch produced a round")
	}
	if !m.Stalled() {
		t.Fatal("Stalled() = false with an unfillable batch and no other work")
	}
	if err := m.Submit(jobOn(3, "b"), 0); err != nil {
		t.Fatal(err)
	}
	if m.Stalled() {
		t.Fatal("Stalled() = true while b has a runnable batch")
	}
	if err := m.Submit(jobOn(2, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if m.PendingJobs() != 3 {
		t.Fatalf("pending = %d, want 3", m.PendingJobs())
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d, want 4 (2 segments per file, a's jobs share)", len(rounds))
	}
	if len(completed) != 3 {
		t.Fatalf("completed = %v, want all three jobs", completed)
	}
	// a's batch of two shares one scan: some round carries both jobs.
	shared := false
	for _, r := range rounds {
		if len(r.Jobs) == 2 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("a's batched jobs never shared a round")
	}
	if m.PendingJobs() != 0 {
		t.Fatalf("pending after drain = %d", m.PendingJobs())
	}
}

func TestMultiMRShareAddPlanMidRun(t *testing.T) {
	m, err := core.NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)},
		batchPlans(map[string][]int{"a": {1}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 0); err == nil {
		t.Fatal("AddPlan accepted expectJobs < 1")
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 1); err == nil {
		t.Fatal("duplicate AddPlan accepted")
	}
	// The derived file's two expected readers form one merged batch.
	if err := m.Submit(jobOn(1, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(2, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 1 || len(rounds[0].Jobs) != 2 {
		t.Fatalf("rounds = %+v, want one shared scan", rounds)
	}
	if len(completed) != 2 {
		t.Fatalf("completed = %v", completed)
	}
}

func TestMultiMRShareConstructorErrors(t *testing.T) {
	if _, err := core.NewMultiMRShare(nil, batchPlans(nil), nil); err == nil {
		t.Fatal("accepted zero plans")
	}
	if _, err := core.NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)},
		batchPlans(nil), nil); err == nil {
		t.Fatal("accepted a file without a batch plan")
	}
}

func TestMultiMRShareRequeueAndIdleProtocol(t *testing.T) {
	m, err := core.NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 4, 2)},
		batchPlans(map[string][]int{"a": {1, 1}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r1, ok := m.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	m.RequeueRound(r1, 1)
	r2, ok := m.NextRound(2)
	if !ok || r2.Segment != r1.Segment {
		t.Fatalf("requeued round = %+v, want segment %d", r2, r1.Segment)
	}
	m.RoundDone(r2, 3)
	r2, _ = m.NextRound(4)
	if done := m.RoundDone(r2, 4); len(done) != 1 || done[0] != 1 {
		t.Fatalf("last segment retired %v, want [1]", done)
	}
	if m.PendingJobs() != 0 {
		t.Fatalf("pending after the last segment = %d", m.PendingJobs())
	}
	if _, ok := m.NextRound(5); ok {
		t.Fatal("finished job still scheduled")
	}

	mustPanic(t, "RoundDone idle", func() { m.RoundDone(r2, 6) })
	mustPanic(t, "RequeueRound idle", func() { m.RequeueRound(r2, 6) })
	if err := m.Submit(jobOn(2, "a"), 7); err != nil {
		t.Fatal(err)
	}
	r3, _ := m.NextRound(8)
	mustPanic(t, "NextRound in flight", func() { m.NextRound(8) })
	m.RoundDone(r3, 9)
}

// fairPerFile is an arbiter over one fair queue per file — no scheme
// ships it, but it exercises the arbiter with this package's own queue.
// fileOf names each queue's file.
func fairPerFile(t *testing.T, plans ...*dfs.SegmentPlan) (a *scheduler.Arbiter[*scheduler.Fair], fileOf map[*scheduler.Fair]string) {
	t.Helper()
	fileOf = make(map[*scheduler.Fair]string)
	a, err := scheduler.NewArbiter("fair-per-file", plans,
		func(p *dfs.SegmentPlan, _ int) (*scheduler.Fair, error) {
			f := scheduler.NewFair(p, nil)
			fileOf[f] = p.File().Name
			return f, nil
		},
		func(f *scheduler.Fair) (int, bool) { return 0, f.PendingJobs() > 0 })
	if err != nil {
		t.Fatal(err)
	}
	return a, fileOf
}

func TestArbiterRequeueKeepsTheFilesTurn(t *testing.T) {
	s, _ := fairPerFile(t, namedPlan(t, "a", 2, 2), namedPlan(t, "b", 2, 2))
	for i, file := range []string{"a", "b"} {
		if err := s.Submit(jobOn(i+1, file), 0); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := s.NextRound(0)
	if err := s.AddPlan(namedPlan(t, "c", 2, 2), 1); err == nil {
		t.Fatal("AddPlan accepted with a round in flight")
	}
	s.RequeueRound(r1, 1)
	r2, ok := s.NextRound(2)
	if !ok || r2.Blocks[0].File != "a" {
		t.Fatalf("after a's round was lost the next is %+v, want a's again", r2)
	}
	s.RoundDone(r2, 3)
	if r3, _ := s.NextRound(3); r3.Blocks[0].File != "b" {
		t.Fatalf("then %+v, want b's", r3)
	}
}

// Every plan-set policy answers the same bad request the same way: a
// reused id is a duplicate even on an unknown file, and a plan is
// refused while a map is in flight.
func TestPlanSetPoliciesAgree(t *testing.T) {
	type planSet interface {
		scheduler.Scheduler
		scheduler.PlanRegistrar
	}
	mrs, err := core.NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)}, batchPlans(map[string][]int{"a": {1}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]planSet{"mrshare": mrs, "fifo": newFIFO(t, nil, namedPlan(t, "a", 2, 2))} {
		if err := s.Submit(jobOn(1, "a"), 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Submit(jobOn(1, "nowhere"), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
			t.Errorf("%s: reused id on an unknown file: %v, want scheduler.ErrDuplicateJob", name, err)
		}
		r, ok := s.NextRound(0)
		if !ok {
			t.Fatalf("%s: no round", name)
		}
		if err := s.AddPlan(namedPlan(t, "b", 2, 2), 1); err == nil {
			t.Errorf("%s: AddPlan accepted with a map in flight", name)
		}
		s.RoundDone(r, 1)
		if err := s.AddPlan(namedPlan(t, "b", 2, 2), 1); err != nil {
			t.Errorf("%s: AddPlan between rounds: %v", name, err)
		}
	}
}

func TestArbiterSnapshotAndRestoreQueues(t *testing.T) {
	fresh := func() *scheduler.Arbiter[*scheduler.Fair] {
		a, _ := fairPerFile(t, namedPlan(t, "a", 2, 2), namedPlan(t, "b", 2, 2))
		return a
	}
	// Fair queues have no snapshot of their own: these stand-ins save
	// the file name and load nothing.
	src, fileOf := fairPerFile(t, namedPlan(t, "a", 2, 2), namedPlan(t, "b", 2, 2))
	save := func(f *scheduler.Fair) (scheduler.QueueSnapshot, error) {
		return scheduler.QueueSnapshot{File: fileOf[f]}, nil
	}
	load := func(*scheduler.Fair, scheduler.QueueSnapshot) error { return nil }

	if err := src.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := src.NextRound(0)
	if done := src.RoundDone(r, 1); len(done) != 1 { // the pointer now rests on b
		t.Fatalf("RoundDone = %v, want job 1 done", done)
	}
	snap, err := src.SnapshotQueues(save)
	if err != nil {
		t.Fatal(err)
	}
	// Every job src routed has ended, and it forgot them; it is still used.
	if err := src.RestoreQueues(snap, load); err == nil {
		t.Error("restore into an arbiter whose every job has ended accepted")
	}
	if snap.Scheme != "fair-per-file" || snap.Rotation != 1 || len(snap.Queues) != 2 || snap.Queues[1].File != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, err := src.SnapshotQueues(func(*scheduler.Fair) (scheduler.QueueSnapshot, error) {
		return scheduler.QueueSnapshot{}, errors.New("busy")
	}); err == nil {
		t.Error("a queue that cannot snapshot was ignored")
	}

	snap.Queues[0].Jobs = []scheduler.JobSnapshot{{Meta: jobOn(4, "a")}}
	dst := fresh()
	if err := dst.RestoreQueues(snap, load); err != nil {
		t.Fatal(err)
	}
	if err := dst.Submit(jobOn(4, "a"), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("restored id resubmitted: %v, want scheduler.ErrDuplicateJob", err)
	}
	if err := dst.RestoreQueues(snap, load); err == nil {
		t.Error("restore into a used arbiter accepted")
	}
	for what, bad := range map[string]func(*scheduler.Snapshot){
		"another scheme":             func(s *scheduler.Snapshot) { s.Scheme = "fifo" },
		"rotation past the files":    func(s *scheduler.Snapshot) { s.Rotation = 2 },
		"an unregistered file":       func(s *scheduler.Snapshot) { s.Queues[1].File = "nowhere" },
		"one file twice":             func(s *scheduler.Snapshot) { s.Queues[1].File = "a" },
		"one job on two files":       func(s *scheduler.Snapshot) { s.Queues[1].Jobs = s.Queues[0].Jobs },
		"a queue that fails to load": nil,
	} {
		broken := snap
		broken.Queues = append([]scheduler.QueueSnapshot(nil), snap.Queues...)
		loader := load
		if bad == nil {
			loader = func(*scheduler.Fair, scheduler.QueueSnapshot) error { return errors.New("bad queue") }
		} else {
			bad(&broken)
		}
		if err := fresh().RestoreQueues(broken, loader); err == nil {
			t.Errorf("restored a snapshot with %s", what)
		}
	}
	if q, ok := dst.Queue("b"); !ok || q == nil {
		t.Error("Queue(b) missing")
	}
	if _, ok := dst.Queue("nowhere"); ok {
		t.Error("Queue of an unregistered file")
	}
	if dst.Stalled() {
		t.Error("queues that cannot stall reported a stall")
	}
}
