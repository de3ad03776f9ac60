package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/experiments"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// contractCase is one scheme of the ParseScheme grammar and the round
// shape its rounds must have.
type contractCase struct {
	name string
	// spec returns the scheme string and, for predetermined MRShare
	// batches, their sizes: every file then gets exactly their sum of
	// jobs, so every batch fills.
	spec func(rng *rand.Rand) (string, []int)
	// multi: a plan-set scheme, run over 1–3 files; the rest take one.
	multi bool
	// tagged, subJobs: the round's Tagged and SubJobReduce; a round that
	// is neither is one job per pass, set up at the pass's first round.
	// alone: every round carries one job.
	tagged, subJobs, alone bool
}

func fixed(spec string) func(*rand.Rand) (string, []int) {
	return func(*rand.Rand) (string, []int) { return spec, nil }
}

// TestSchedulerContract drives every scheme ParseScheme builds, the
// plan-set ones over 1–3 files, through seeded runs with arrivals during
// and between rounds, lost rounds requeued, and NextWake jumps. It
// checks what the run loop relies on whatever the scheme:
//
//   - a round scans one file's segment, its blocks as planned, and
//     carries only submitted, unfinished jobs of that file;
//   - FreshJobs, Tagged and SubJobReduce match the scheme's round shape;
//   - each job covers each segment of its file exactly once, in circular
//     order (a requeued round counts once), and completes once, in the
//     round whose Completes names it;
//   - every scheme but s3 starts each job at segment 0;
//   - once arrivals stop, a round comes within a bounded number of
//     NextWake jumps, until every job has completed, and no scheduler
//     reports a stall;
//   - every S^3 queue holds Algorithm 1's invariant between rounds (each
//     active job still needs the cursor segment), and its rounds carry
//     every active job;
//   - s3's snapshot, restored into a fresh scheduler, continues exactly
//     as the uninterrupted scheduler does.
func TestSchedulerContract(t *testing.T) {
	cases := []contractCase{
		{name: "s3", spec: fixed("s3"), multi: true, subJobs: true},
		{name: "fifo", spec: fixed("fifo"), multi: true, alone: true},
		{name: "mrshare", spec: fixed("mrshare"), multi: true, tagged: true},
		{name: "mrshare:n", multi: true, tagged: true, spec: func(rng *rand.Rand) (string, []int) {
			sizes := make([]int, 1+rng.Intn(2))
			spec := "mrshare"
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(3)
				spec += fmt.Sprintf(":%d", sizes[i])
			}
			return spec, sizes
		}},
		{name: "window", tagged: true, spec: func(rng *rand.Rand) (string, []int) {
			return fmt.Sprintf("window:%d:%d", 1+rng.Intn(20), 1+rng.Intn(4)), nil
		}},
		{name: "s3-static", spec: fixed("s3-static"), subJobs: true},
		{name: "s3-nocircular", spec: fixed("s3-nocircular"), subJobs: true},
		{name: "fair", spec: fixed("fair"), alone: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 300; seed++ {
				if err := contractRun(rand.New(rand.NewSource(seed)), c); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// contractRun is one seeded run of c's scheme.
func contractRun(rng *rand.Rand, c contractCase) error {
	spec, sizes := c.spec(rng)
	nfiles := 1
	if c.multi {
		nfiles += rng.Intn(3)
	}
	store := dfs.MustStore(2, 1)
	plans := make([]*dfs.SegmentPlan, nfiles)
	planOf := make(map[string]*dfs.SegmentPlan, nfiles)
	for i := range plans {
		k, per := 1+rng.Intn(8), 1+rng.Intn(2)
		f, err := store.AddMetaFile(fmt.Sprintf("f%d", i), k*per, 64)
		if err != nil {
			return err
		}
		if plans[i], err = dfs.PlanSegments(f, per); err != nil {
			return err
		}
		planOf[f.Name] = plans[i]
	}

	// The arrivals, in order; job ids count up from 1.
	var files []string
	if sizes != nil {
		per := 0
		for _, n := range sizes {
			per += n
		}
		for _, p := range plans {
			for i := 0; i < per; i++ {
				files = append(files, p.File().Name)
			}
		}
		rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	} else {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			files = append(files, plans[rng.Intn(nfiles)].File().Name)
		}
	}
	readers := make(map[string]int)
	for _, f := range files {
		readers[f]++
	}

	scheme, err := experiments.ParseScheme(spec)
	if err != nil {
		return err
	}
	s, err := scheme.Make(plans, readers)
	if err != nil {
		return err
	}
	rec, ok := s.(scheduler.Recoverable)
	if !ok {
		return fmt.Errorf("%s cannot requeue a lost round", spec)
	}
	queues := queuesOf(s)

	// twin, once set, is a scheduler restored from s's snapshot: it
	// gets every later call s gets and must answer alike.
	var twin scheduler.Scheduler
	fileOf := make(map[scheduler.JobID]string)
	covered := make(map[scheduler.JobID][]int)
	done := make(map[scheduler.JobID]bool)
	var inFlight *scheduler.Round
	now := vclock.Time(0)
	submit := func() error {
		id := scheduler.JobID(len(fileOf) + 1)
		job := scheduler.JobMeta{ID: id, File: files[id-1]}
		fileOf[id] = job.File
		if err := s.Submit(job, now); err != nil {
			return err
		}
		if twin != nil {
			if err := twin.Submit(job, now); err != nil {
				return fmt.Errorf("restored twin refused job %d: %w", id, err)
			}
		}
		return nil
	}

	for steps, idle := 0, 0; len(done) < len(files); steps++ {
		if steps > 5000 {
			return fmt.Errorf("no progress: %d of %d jobs done, %d pending", len(done), len(files), s.PendingJobs())
		}
		now = now.Add(vclock.Duration(rng.Intn(4)))
		arrivalsLeft := len(fileOf) < len(files)
		switch {
		case arrivalsLeft && rng.Intn(3) == 0: // during a round or between rounds
			if err := submit(); err != nil {
				return err
			}
		case inFlight != nil && rng.Intn(4) == 0: // the round is lost
			r := *inFlight
			inFlight = nil
			rec.RequeueRound(r, now)
			if twin != nil {
				twin.(scheduler.Recoverable).RequeueRound(r, now)
			}
		case inFlight != nil:
			r := *inFlight
			inFlight = nil
			got := s.RoundDone(r, now)
			if twin != nil {
				if again := twin.RoundDone(r, now); !reflect.DeepEqual(got, again) {
					return fmt.Errorf("round %+v: restored twin completed %v, scheduler %v", r, again, got)
				}
			}
			if err := retire(r, got, fileOf, planOf, covered, done, c.name == "s3"); err != nil {
				return err
			}
		default:
			if sn, ok := s.(scheduler.Snapshottable); ok && twin == nil && rng.Intn(4) == 0 {
				if twin, err = restoredTwin(sn, scheme, plans, readers); err != nil {
					return err
				}
			}
			r, ok := s.NextRound(now)
			if twin != nil {
				again, tok := twin.NextRound(now)
				if ok != tok || !reflect.DeepEqual(r, again) {
					return fmt.Errorf("restored twin formed %+v (%v), scheduler %+v (%v)", again, tok, r, ok)
				}
			}
			if !ok {
				if arrivalsLeft {
					continue
				}
				if w, ok := s.(interface {
					NextWake(vclock.Time) (vclock.Time, bool)
				}); ok {
					if wake, ok := w.NextWake(now); ok && wake > now {
						now = wake
						continue
					}
				}
				if idle++; idle > 3 {
					return fmt.Errorf("arrivals done, %d jobs pending, no round and no timer", s.PendingJobs())
				}
				continue
			}
			idle = 0
			if err := checkRound(r, c, fileOf, planOf, covered, done, queues); err != nil {
				return err
			}
			inFlight = &r
		}
		if inFlight == nil {
			if err := checkAlgorithm1(queues); err != nil {
				return err
			}
		}
		if st, ok := s.(scheduler.Stalled); ok && st.Stalled() && len(fileOf) == len(files) {
			return fmt.Errorf("stalled with every job submitted and %d pending", s.PendingJobs())
		}
	}
	if s.PendingJobs() != 0 {
		return fmt.Errorf("every job done, %d still pending", s.PendingJobs())
	}
	return nil
}

// queuesOf returns s's S^3 queues by file: its own, or its arbiter's.
func queuesOf(s scheduler.Scheduler) map[string]*core.S3 {
	out := make(map[string]*core.S3)
	switch s := s.(type) {
	case *core.S3:
		out[s.Plan().File().Name] = s
	case *core.MultiFile:
		for _, f := range s.Files() {
			out[f], _ = s.Queue(f)
		}
	case *scheduler.Arbiter[*core.S3]:
		for _, f := range s.Files() {
			out[f], _ = s.Queue(f)
		}
	}
	return out
}

// restoredTwin snapshots s and restores the snapshot into a fresh
// scheduler of the same scheme.
func restoredTwin(s scheduler.Snapshottable, scheme experiments.SchemeSpec, plans []*dfs.SegmentPlan, readers map[string]int) (scheduler.Scheduler, error) {
	snap, err := s.StateSnapshot()
	if err != nil {
		return nil, err
	}
	twin, err := scheme.Make(plans, readers)
	if err != nil {
		return nil, err
	}
	if err := twin.(scheduler.Snapshottable).RestoreState(snap); err != nil {
		return nil, fmt.Errorf("restoring %+v: %w", snap, err)
	}
	return twin, nil
}

// checkRound holds a newly formed round to the contract.
func checkRound(r scheduler.Round, c contractCase, fileOf map[scheduler.JobID]string, planOf map[string]*dfs.SegmentPlan,
	covered map[scheduler.JobID][]int, done map[scheduler.JobID]bool, queues map[string]*core.S3) error {
	if len(r.Jobs) == 0 {
		return fmt.Errorf("round %+v has no jobs", r)
	}
	file := fileOf[r.Jobs[0].ID]
	if plan := planOf[file]; r.Segment < 0 || r.Segment >= plan.NumSegments() || !slices.Equal(r.Blocks, plan.Blocks(r.Segment)) {
		return fmt.Errorf("round %+v does not scan one planned segment of %s", r, file)
	}
	first := len(covered[r.Jobs[0].ID]) == 0
	for _, j := range r.Jobs {
		switch f, ok := fileOf[j.ID]; {
		case !ok || done[j.ID]:
			return fmt.Errorf("round %+v carries job %d, unsubmitted or done", r, j.ID)
		case f != file:
			return fmt.Errorf("round %+v mixes files %s and %s", r, file, f)
		case !c.subJobs && (len(covered[j.ID]) == 0) != first:
			return fmt.Errorf("round %+v merges jobs that start with it and jobs that do not", r)
		}
	}
	fresh := c.subJobs || first
	switch {
	case r.Tagged != c.tagged || r.SubJobReduce != c.subJobs || (r.FreshJobs == 1) != fresh || r.FreshJobs > 1:
		return fmt.Errorf("round %+v has the wrong shape for %s", r, c.name)
	case c.alone && len(r.Jobs) != 1:
		return fmt.Errorf("round %+v of %s carries %d jobs", r, c.name, len(r.Jobs))
	}
	if q, ok := queues[file]; ok && len(r.Jobs) != len(q.Active()) {
		return fmt.Errorf("round %+v leaves out some of the %d active jobs", r, len(q.Active()))
	}
	return nil
}

// retire records a finished round's coverage and holds its completions
// to the contract.
func retire(r scheduler.Round, completed []scheduler.JobID, fileOf map[scheduler.JobID]string, planOf map[string]*dfs.SegmentPlan,
	covered map[scheduler.JobID][]int, done map[scheduler.JobID]bool, circular bool) error {
	for _, j := range r.Jobs {
		covered[j.ID] = append(covered[j.ID], r.Segment)
	}
	got, want := slices.Clone(completed), slices.Clone(r.Completes)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("round %+v completed %v", r, completed)
	}
	for _, id := range completed {
		if done[id] {
			return fmt.Errorf("job %d completed twice", id)
		}
		done[id] = true
		segs, k := covered[id], planOf[fileOf[id]].NumSegments()
		if len(segs) != k || (!circular && segs[0] != 0) {
			return fmt.Errorf("job %d completed over segments %v of %d", id, segs, k)
		}
		for i := 1; i < k; i++ {
			if segs[i] != (segs[i-1]+1)%k {
				return fmt.Errorf("job %d covered segments %v, not in circular order", id, segs)
			}
		}
	}
	return nil
}

// checkAlgorithm1 holds every S^3 queue, between rounds, to Algorithm
// 1's invariant: a job admitted at StartSegment with Remaining sub-jobs
// left needs the cursor segment next.
func checkAlgorithm1(queues map[string]*core.S3) error {
	for file, q := range queues {
		k := q.Plan().NumSegments()
		for _, js := range q.Active() {
			if (js.StartSegment+k-js.Remaining)%k != q.Cursor() {
				return fmt.Errorf("%s: job %d (start %d, %d of %d left) does not need cursor segment %d", file, js.Meta.ID, js.StartSegment, js.Remaining, k, q.Cursor())
			}
		}
	}
	return nil
}
