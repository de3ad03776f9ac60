package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// planSet is what every plan-set scheduler offers a driver.
type planSet interface {
	scheduler.Scheduler
	scheduler.Recoverable
	scheduler.PlanRegistrar
	Files() []string
}

// TestArbiterProperty drives the three plan-set schedulers — the arbiter
// over S^3 queues, the arbiter over MRShare queues, and the global-queue
// FIFO — through random files, arrivals, a file registered mid-run, lost
// rounds, and checks what a driver relies on whatever the
// policy:
//
//   - a round scans one file, and the rounds that scan a file take its
//     segments in order, one step mod k at a time;
//   - a lost round re-forms identically before any other file's;
//   - RoundDone reaches the queue that launched the round (it reports
//     exactly the round's Completes);
//   - AddPlan is refused while a map is in flight, and only then;
//   - every job retires exactly once;
//   - no file with runnable work starves (the arbiters serve it within
//     one rotation; FIFO retires jobs in submission order).
func TestArbiterProperty(t *testing.T) {
	type policy struct {
		name string
		// build makes the scheduler; sizes is each file's batch plan.
		build func(plans []*dfs.SegmentPlan, sizes map[string][]int) (planSet, error)
		// batched: a job runs once its batch has filled (MRShare).
		// global: one queue for all files (FIFO), so no rotation.
		batched, global bool
	}
	policies := []policy{
		{name: "s3", build: func(p []*dfs.SegmentPlan, _ map[string][]int) (planSet, error) { return NewMultiFile(p, nil) }},
		{name: "mrshare", batched: true, build: func(p []*dfs.SegmentPlan, sizes map[string][]int) (planSet, error) {
			return NewMultiMRShare(p, func(file string) []int { return sizes[file] }, nil)
		}},
		{name: "fifo", global: true, build: func(p []*dfs.SegmentPlan, _ map[string][]int) (planSet, error) {
			return NewFIFO(p, nil)
		}},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				if err := arbiterScenario(rand.New(rand.NewSource(seed)), pol.build, pol.batched, pol.global); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

func arbiterScenario(rng *rand.Rand, build func([]*dfs.SegmentPlan, map[string][]int) (planSet, error), batched, global bool) error {
	// Two or three files up front, one more registered mid-run.
	store := dfs.MustStore(2, 1)
	names := []string{"a", "b", "c", "late"}[3-(2+rng.Intn(2)):]
	plans := make(map[string]*dfs.SegmentPlan)
	for _, name := range names {
		f, err := store.AddMetaFile(name, 1+rng.Intn(5), 64)
		if err != nil {
			return err
		}
		if plans[name], err = dfs.PlanSegments(f, 1); err != nil {
			return err
		}
	}
	// Jobs, each on a random file; a batched policy needs a batch plan
	// that exactly covers each file's jobs.
	n := 2 + rng.Intn(9)
	fileOf := make(map[scheduler.JobID]string, n)
	perFile := make(map[string][]scheduler.JobID)
	for id := scheduler.JobID(1); int(id) <= n; id++ {
		file := names[rng.Intn(len(names))]
		fileOf[id] = file
		perFile[file] = append(perFile[file], id)
	}
	sizes := make(map[string][]int)
	for _, name := range names[:len(names)-1] {
		for left := len(perFile[name]); left > 0; {
			sz := 1 + rng.Intn(left)
			sizes[name] = append(sizes[name], sz)
			left -= sz
		}
		if len(sizes[name]) == 0 {
			sizes[name] = []int{1}
		}
	}
	lateReaders := max(len(perFile["late"]), 1) // AddPlan's expectJobs: one batch of them all
	var initial []*dfs.SegmentPlan
	for _, name := range names[:len(names)-1] {
		initial = append(initial, plans[name])
	}
	s, err := build(initial, sizes)
	if err != nil {
		return err
	}

	// The model. readyAt[id] is how many submissions its file must have
	// seen before a batched policy can run id: the end of its batch.
	var (
		now       vclock.Time
		submitted = make(map[scheduler.JobID]bool)
		order     []scheduler.JobID // submission order
		retired   = make(map[scheduler.JobID]int)
		retiredIn []scheduler.JobID      // retirement order
		seenOn    = make(map[string]int) // submissions per file so far
		readyAt   = make(map[scheduler.JobID]int)
		lastSeg   = make(map[string]int)
		waited    = make(map[string]int) // scans of other files while the file could have run
		lateIn    bool
	)
	sizes["late"] = []int{lateReaders}
	for file, ids := range perFile {
		cum, b := 0, 0
		for i, id := range ids {
			if i == cum+sizes[file][b] {
				cum += sizes[file][b]
				b++
			}
			readyAt[id] = cum + sizes[file][b]
		}
	}
	open := func(id scheduler.JobID) bool {
		return submitted[id] && retired[id] == 0
	}
	runnable := func(file string) bool {
		for _, id := range perFile[file] {
			if open(id) && (!batched || seenOn[file] >= readyAt[id]) {
				return true
			}
		}
		return false
	}
	retire := func(r scheduler.Round, done []scheduler.JobID) error {
		want := slices.Clone(r.Completes)
		slices.Sort(want)
		got := slices.Clone(done)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("RoundDone over %s segment %d reported %v, the round completes %v", r.Blocks[0].File, r.Segment, done, r.Completes)
		}
		for _, id := range done {
			retired[id]++
			retiredIn = append(retiredIn, id)
		}
		return nil
	}
	next := scheduler.JobID(1)
	for steps := 0; ; steps++ {
		if steps > 5000 {
			return fmt.Errorf("no end: %d pending", s.PendingJobs())
		}
		now++
		allIn := int(next) > n
		if allIn && s.PendingJobs() == 0 {
			break
		}
		switch act := rng.Intn(8); {
		case act == 0 && !lateIn:
			if err := s.AddPlan(plans["late"], lateReaders); err != nil {
				return fmt.Errorf("AddPlan between rounds: %v", err)
			}
			if s.AddPlan(plans["late"], lateReaders) == nil {
				return fmt.Errorf("AddPlan accepted a second plan for one file")
			}
			lateIn = true
			continue
		case act <= 2 && !allIn:
			id := next
			job := scheduler.JobMeta{ID: id, File: fileOf[id]}
			if fileOf[id] == "late" && !lateIn {
				if s.Submit(job, now) == nil {
					return fmt.Errorf("job %d admitted on an unregistered file", id)
				}
				continue
			}
			if err := s.Submit(job, now); err != nil {
				return err
			}
			// Duplicate id beats unknown file, whatever the policy.
			if err := s.Submit(scheduler.JobMeta{ID: id, File: "nowhere"}, now); !errors.Is(err, scheduler.ErrDuplicateJob) {
				return fmt.Errorf("resubmitting job %d on an unknown file: %v, want ErrDuplicateJob", id, err)
			}
			submitted[id] = true
			order = append(order, id)
			seenOn[fileOf[id]]++
			next++
			continue
		}

		r, ok := s.NextRound(now)
		if !ok {
			for _, file := range s.Files() {
				if runnable(file) {
					return fmt.Errorf("idle with runnable work on %s", file)
				}
			}
			continue
		}
		file := r.Blocks[0].File
		for _, b := range r.Blocks {
			if b.File != file {
				return fmt.Errorf("round mixes files: %v", r.Blocks)
			}
		}
		for _, j := range r.Jobs {
			if fileOf[j.ID] != file || !open(j.ID) {
				return fmt.Errorf("round over %s carries job %d (file %s, open %v)", file, j.ID, fileOf[j.ID], open(j.ID))
			}
		}
		if !lateIn && s.AddPlan(plans["late"], lateReaders) == nil {
			return fmt.Errorf("AddPlan accepted with a map in flight")
		}
		k := plans[file].NumSegments()
		if prev, scanned := lastSeg[file]; scanned && r.Segment != (prev+1)%k {
			return fmt.Errorf("%s scanned segment %d, then %d of %d", file, prev, r.Segment, k)
		}
		if rng.Intn(5) == 0 {
			// Lost: the same round must come back, before any other.
			s.RequeueRound(r, now)
			again, ok := s.NextRound(now)
			if !ok || !reflect.DeepEqual(again, r) {
				return fmt.Errorf("lost round %+v re-formed as %+v (ok %v)", r, again, ok)
			}
		}
		lastSeg[file] = r.Segment
		if !global {
			for _, other := range s.Files() {
				switch {
				case other == file || !runnable(other):
					waited[other] = 0
				default:
					if waited[other]++; waited[other] >= len(s.Files()) {
						return fmt.Errorf("%s is runnable and sat out %d scans", other, waited[other])
					}
				}
			}
		}
		if err := retire(r, s.RoundDone(r, now)); err != nil {
			return err
		}
	}

	for _, id := range order {
		if retired[id] != 1 {
			return fmt.Errorf("job %d retired %d times", id, retired[id])
		}
	}
	if global && !slices.Equal(retiredIn, order) {
		return fmt.Errorf("one queue retired %v, admitted in the order %v", retiredIn, order)
	}
	return nil
}
