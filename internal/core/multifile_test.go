package core

import (
	"errors"
	"reflect"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// multiPlans builds two files ("alpha": 2 segments, "beta": 3
// segments) in one store.
func multiPlans(t *testing.T) []*dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(2, 1)
	fa, err := store.AddMetaFile("alpha", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.AddMetaFile("beta", 6, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := dfs.PlanSegments(fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := dfs.PlanSegments(fb, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*dfs.SegmentPlan{pa, pb}
}

func fileJob(id int, file string, prio int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: file, Priority: prio}
}

func TestMultiFileRoutesByFile(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Files(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Files = %v", got)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	// Rounds alternate between the two files (round-robin at equal
	// priority), and every round's blocks belong to one file only.
	filesSeen := map[string]int{}
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		file := r.Blocks[0].File
		for _, b := range r.Blocks {
			if b.File != file {
				t.Fatalf("round mixes files: %v", r.Blocks)
			}
		}
		filesSeen[file]++
		m.RoundDone(r, 0)
	}
	if filesSeen["alpha"] != 2 || filesSeen["beta"] != 3 {
		t.Fatalf("rounds per file = %v, want alpha:2 beta:3", filesSeen)
	}
	if m.PendingJobs() != 0 {
		t.Fatalf("pending = %d", m.PendingJobs())
	}
}

func TestMultiFileRoundRobinFairness(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < 4; i++ {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		order = append(order, r.Blocks[0].File)
		m.RoundDone(r, 0)
	}
	// alpha, beta, alpha, beta (equal priority alternation).
	want := []string{"alpha", "beta", "alpha", "beta"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMultiFilePriorityWins(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 5), 0); err != nil {
		t.Fatal(err)
	}
	// beta holds the high-priority job: it gets every round until its
	// job completes (3 segments), then alpha runs.
	var order []string
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		order = append(order, r.Blocks[0].File)
		m.RoundDone(r, 0)
	}
	want := []string{"beta", "beta", "beta", "alpha", "alpha"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMultiFileSharingWithinFile(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	r, ok := m.NextRound(0)
	if !ok || len(r.Jobs) != 2 {
		t.Fatalf("same-file jobs should share the round: %v", r.JobIDs())
	}
	m.RoundDone(r, 0)
}

func TestMultiFileErrors(t *testing.T) {
	if _, err := NewMultiFile(nil, nil); err == nil {
		t.Error("no plans should fail")
	}
	plans := multiPlans(t)
	if _, err := NewMultiFile([]*dfs.SegmentPlan{plans[0], plans[0]}, nil); err == nil {
		t.Error("duplicate file plans should fail")
	}
	m, err := NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "s3-multifile" {
		t.Errorf("Name = %q", m.Name())
	}
	if err := m.Submit(fileJob(1, "gamma", 0), 0); err == nil {
		t.Error("unregistered file should fail")
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "beta", 0), 0); err == nil {
		t.Error("duplicate id across files should fail")
	}
	if _, ok := m.NextRound(0); !ok {
		t.Fatal("expected a round")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NextRound should panic")
			}
		}()
		m.NextRound(0)
	}()
}

func TestMultiFileIdle(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextRound(0); ok {
		t.Error("empty scheduler should be idle")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stray RoundDone should panic")
			}
		}()
		m.RoundDone(scheduler.Round{}, 0)
	}()
}

func TestMultiFileScanHinterCarriesFileNames(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	hinted := map[string]int{}
	m.SetScanHinter(func(h dfs.ScanHint) { hinted[h.File]++ })
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		m.RoundDone(r, 0)
	}
	// Each file's queue hints independently as its own cursor advances,
	// naming its file so one cache can track every pin window at once.
	if hinted["alpha"] == 0 || hinted["beta"] == 0 {
		t.Fatalf("hints per file = %v, want both files hinted", hinted)
	}
	for f := range hinted {
		if f != "alpha" && f != "beta" {
			t.Fatalf("hint for unknown file %q", f)
		}
	}
}

// A drained run leaves no per-job entry in the arbiter or in any file's
// queue, whichever scheme admits: each forgets a job when RoundDone
// reports it done. A live id is still refused; an ended one is the
// admission queue's to refuse (runtime.LiveSource), so the scheduler
// takes it as new.
func TestDrainedRunForgets(t *testing.T) {
	const jobs = 100
	for _, c := range []struct {
		name  string
		build func([]*dfs.SegmentPlan) (*scheduler.Arbiter[*S3], error)
	}{
		{"s3", func(p []*dfs.SegmentPlan) (*scheduler.Arbiter[*S3], error) {
			m, err := NewMultiFile(p, nil)
			if err != nil {
				return nil, err
			}
			return m.Arbiter, nil
		}},
		{"fifo", func(p []*dfs.SegmentPlan) (*scheduler.Arbiter[*S3], error) { return NewFIFO(p, nil) }},
		{"mrshare", func(p []*dfs.SegmentPlan) (*scheduler.Arbiter[*S3], error) {
			return NewMultiMRShare(p, func(string) []int { return []int{10, 10, 10, 10, 10, 2} }, nil)
		}},
	} {
		plans := multiPlans(t)
		s, err := c.build(plans)
		if err != nil {
			t.Fatal(err)
		}
		job := func(id int) scheduler.JobMeta { return fileJob(id, plans[id%2].File().Name, 0) }
		var now vclock.Time
		for id := 1; id <= jobs || s.PendingJobs() > 0; {
			if id <= jobs {
				if err := s.Submit(job(id), now); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if id++; id%3 != 0 {
					continue // a few arrivals between two rounds
				}
			}
			r, ok := s.NextRound(now)
			if !ok && id > jobs {
				t.Fatalf("%s: idle with %d jobs pending", c.name, s.PendingJobs())
			}
			if ok {
				now++
				s.RoundDone(r, now)
			}
		}
		if n := reflect.ValueOf(s).Elem().FieldByName("seen").Len(); n != 0 {
			t.Errorf("%s: the drained arbiter holds %d jobs", c.name, n)
		}
		for _, file := range s.Files() {
			q, _ := s.Queue(file)
			if n := len(q.seen) + len(q.active) + len(q.jobSpans) + len(q.launchedFor); n != 0 || q.gate != nil && len(q.gate.waiting) != 0 {
				t.Errorf("%s: the drained queue of %s holds %d job entries, gate %+v", c.name, file, n, q.gate)
			}
		}
		live := job(jobs + 1)
		if err := s.Submit(live, now); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		q, _ := s.Queue(live.File)
		if err := s.Submit(live, now); !errors.Is(err, scheduler.ErrDuplicateJob) {
			t.Errorf("%s: a live id resubmitted: %v, want ErrDuplicateJob", c.name, err)
		}
		if err := q.Submit(live, now); !errors.Is(err, scheduler.ErrDuplicateJob) {
			t.Errorf("%s: a live id resubmitted to its queue: %v, want ErrDuplicateJob", c.name, err)
		}
		if err := s.Submit(job(1), now); err != nil {
			t.Errorf("%s: an ended id resubmitted: %v, want it taken as new", c.name, err)
		}
	}
}
