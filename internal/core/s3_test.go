package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

func makePlan(t *testing.T, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("input", numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

func job(id int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), Name: "j", File: "input", Weight: 1, ReduceWeight: 1}
}

func TestS3SingleJobCircular(t *testing.T) {
	p := makePlan(t, 12, 3) // 4 segments
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	var segs []int
	var done []scheduler.JobID
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		segs = append(segs, r.Segment)
		done = append(done, s.RoundDone(r, 0)...)
	}
	want := []int{0, 1, 2, 3}
	if len(segs) != 4 {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments = %v, want %v", segs, want)
		}
	}
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("done = %v", done)
	}
}

func TestS3LateJobJoinsNextSegment(t *testing.T) {
	p := makePlan(t, 8, 2) // 4 segments
	log := trace.MustNew(128)
	s := New(p, log)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Run two rounds (segments 0 and 1) with job 1 alone.
	for i := 0; i < 2; i++ {
		r, _ := s.NextRound(0)
		if len(r.Jobs) != 1 {
			t.Fatalf("round %d batch = %v, want just job 1", i, r.JobIDs())
		}
		s.RoundDone(r, 0)
	}
	// Job 2 arrives; cursor is at segment 2.
	if err := s.Submit(job(2), 20); err != nil {
		t.Fatal(err)
	}
	if got := s.Active()[1].StartSegment; got != 2 {
		t.Fatalf("job 2 start segment = %d, want 2", got)
	}
	// Next rounds batch both jobs: segments 2, 3 then wrap to 0, 1
	// where job 1 has completed.
	type roundInfo struct {
		seg  int
		jobs int
		done []scheduler.JobID
	}
	var seen []roundInfo
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		done := s.RoundDone(r, 0)
		seen = append(seen, roundInfo{seg: r.Segment, jobs: len(r.Jobs), done: done})
	}
	want := []roundInfo{
		{seg: 2, jobs: 2}, {seg: 3, jobs: 2, done: []scheduler.JobID{1}},
		{seg: 0, jobs: 1}, {seg: 1, jobs: 1, done: []scheduler.JobID{2}},
	}
	if len(seen) != len(want) {
		t.Fatalf("rounds = %+v, want %+v", seen, want)
	}
	for i := range want {
		if seen[i].seg != want[i].seg || seen[i].jobs != want[i].jobs || len(seen[i].done) != len(want[i].done) {
			t.Fatalf("round %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
	// Job 1 ran 4 rounds total and shared two scans with job 2.
	if aligned := log.OfKind(trace.SubJobAligned); len(aligned) != 2 {
		t.Errorf("aligned events = %d, want 2 (one per submit)", len(aligned))
	}
}

func TestS3MidRoundSubmitMissesInFlightScan(t *testing.T) {
	p := makePlan(t, 6, 2) // 3 segments
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(0) // segment 0 in flight
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	// Job 2 must start at segment 1: segment 0 is being scanned
	// without it.
	if got := s.Active()[1].StartSegment; got != 1 {
		t.Fatalf("mid-round submit start segment = %d, want 1", got)
	}
	done := s.RoundDone(r, 2)
	if len(done) != 0 {
		t.Fatalf("done = %v, want none", done)
	}
	// Job 2's Remaining must still be 3 — it did not share segment 0.
	for _, js := range s.Active() {
		switch js.Meta.ID {
		case 1:
			if js.Remaining != 2 {
				t.Errorf("job 1 remaining = %d, want 2", js.Remaining)
			}
		case 2:
			if js.Remaining != 3 {
				t.Errorf("job 2 remaining = %d, want 3", js.Remaining)
			}
		}
	}
	// Drain: job 2 completes exactly after segments 1,2,0.
	var lastSeg int
	var lastDone []scheduler.JobID
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		lastSeg = r.Segment
		lastDone = s.RoundDone(r, 0)
	}
	if lastSeg != 0 || len(lastDone) != 1 || lastDone[0] != 2 {
		t.Fatalf("job 2 finished at segment %d with done=%v, want segment 0", lastSeg, lastDone)
	}
}

func TestS3SubmitErrors(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(1), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Errorf("err = %v, want ErrDuplicateJob", err)
	}
	bad := job(2)
	bad.File = "other"
	if err := s.Submit(bad, 0); !errors.Is(err, scheduler.ErrWrongFile) {
		t.Errorf("err = %v, want ErrWrongFile", err)
	}
}

func TestS3ProtocolViolationsPanic(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextRound in flight should panic")
			}
		}()
		s.NextRound(0)
	}()
	s.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RoundDone without flight should panic")
			}
		}()
		s.RoundDone(r, 1)
	}()
}

func TestS3IdleAndAccessors(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := New(p, nil)
	if _, ok := s.NextRound(0); ok {
		t.Error("empty scheduler should be idle")
	}
	if s.Name() != "s3" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Cursor() != 0 || s.PendingJobs() != 0 || s.Plan() != p {
		t.Error("accessor defaults wrong")
	}
}

func TestS3CursorHoldsWhileIdle(t *testing.T) {
	p := makePlan(t, 6, 2) // 3 segments
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Drain job 1 fully; cursor ends back at 0.
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		s.RoundDone(r, 0)
	}
	if s.Cursor() != 0 {
		t.Fatalf("cursor = %d, want 0 after full wrap", s.Cursor())
	}
	// A job arriving later starts at the held cursor.
	if err := s.Submit(job(2), 50); err != nil {
		t.Fatal(err)
	}
	r, _ := s.NextRound(50)
	if r.Segment != 0 {
		t.Fatalf("restart segment = %d, want 0", r.Segment)
	}
	s.RoundDone(r, 51)
}

// Property: under any arrival pattern, (a) every job participates in
// exactly k rounds, (b) the segments a job sees are k consecutive
// circular segments starting at its start segment, and (c) every
// round batches every active job (the all-active-share invariant).
func TestS3ScheduleProperty(t *testing.T) {
	prop := func(seed int64, k8, n8 uint8) bool {
		k := int(k8%9) + 2 // 2..10 segments
		n := int(n8%6) + 1 // 1..6 jobs
		rng := rand.New(rand.NewSource(seed))

		store := dfs.MustStore(2, 1)
		f, err := store.AddMetaFile("input", k, 64)
		if err != nil {
			return false
		}
		p, err := dfs.PlanSegments(f, 1)
		if err != nil {
			return false
		}
		s := New(p, nil)

		segsByJob := make(map[scheduler.JobID][]int)
		completed := make(map[scheduler.JobID]bool)
		submitted := 0
		// Interleave submissions and rounds randomly.
		for submitted < n || s.PendingJobs() > 0 {
			if submitted < n && (rng.Intn(2) == 0 || s.PendingJobs() == 0) {
				id := scheduler.JobID(submitted + 1)
				if err := s.Submit(scheduler.JobMeta{ID: id, File: "input"}, 0); err != nil {
					return false
				}
				submitted++
				continue
			}
			r, ok := s.NextRound(0)
			if !ok {
				return false // pending jobs but no round: invariant broken
			}
			// (c) every active job is in the batch.
			if len(r.Jobs) != s.PendingJobs() {
				return false
			}
			for _, j := range r.Jobs {
				segsByJob[j.ID] = append(segsByJob[j.ID], r.Segment)
			}
			for _, id := range s.RoundDone(r, 0) {
				if completed[id] {
					return false
				}
				completed[id] = true
			}
		}
		if len(completed) != n {
			return false
		}
		// (a) + (b): per-job segment sequences are circularly
		// consecutive and cover all k segments exactly once.
		for _, segs := range segsByJob {
			if len(segs) != k {
				return false
			}
			for i := 1; i < len(segs); i++ {
				if segs[i] != (segs[i-1]+1)%k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestS3JobLifetimeSpans(t *testing.T) {
	p := makePlan(t, 8, 2) // 4 segments
	log := trace.MustNew(128)
	s := New(p, log)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Run one round at 5, admit job 2, then drain both a round a tick:
	// job 1 completes at 8, job 2 one segment later.
	r, _ := s.NextRound(0)
	s.RoundDone(r, 5)
	if err := s.Submit(job(2), 5); err != nil {
		t.Fatal(err)
	}
	for at := 6; ; at++ {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		s.RoundDone(r, vclock.Time(at))
	}
	byJob := map[int]trace.Span{}
	for _, sp := range log.Spans() {
		if sp.Name != "job" {
			continue
		}
		if sp.Cat != "jqm" {
			t.Errorf("job span cat = %q, want jqm", sp.Cat)
		}
		byJob[sp.Job] = sp
	}
	if len(byJob) != 2 {
		t.Fatalf("job spans = %d, want 2", len(byJob))
	}
	wantSpan := map[int][2]vclock.Time{1: {0, 8}, 2: {5, 9}}
	for id, want := range wantSpan {
		sp, ok := byJob[id]
		if !ok {
			t.Fatalf("no span for job %d", id)
		}
		if !sp.Ended {
			t.Errorf("job %d span not ended", id)
		}
		var got string
		for _, a := range sp.Args {
			if a.Key == "result" {
				got = a.Value
			}
		}
		if got != "completed" {
			t.Errorf("job %d result arg = %q, want completed", id, got)
		}
		if sp.Start != want[0] || sp.End != want[1] {
			t.Errorf("job %d span [%v, %v], want [%v, %v]", id, sp.Start, sp.End, want[0], want[1])
		}
	}
}

func TestS3NilLogSpansSafe(t *testing.T) {
	p := makePlan(t, 4, 2)
	s := New(p, nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := s.NextRound(0)
		if !ok {
			break
		}
		s.RoundDone(r, 0)
	}
	if s.jobSpans != nil {
		t.Errorf("jobSpans allocated with nil log")
	}
}
