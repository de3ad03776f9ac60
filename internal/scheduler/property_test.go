package scheduler_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Property: Fair gives every job exactly k slices with segments in
// linear order, regardless of interleaved arrivals.
func TestFairSliceProperty(t *testing.T) {
	prop := func(seed int64, k8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8%6) + 1
		n := int(n8%5) + 1

		store := dfs.MustStore(2, 1)
		f, err := store.AddMetaFile("input", k, 64)
		if err != nil {
			return false
		}
		plan, err := dfs.PlanSegments(f, 1)
		if err != nil {
			return false
		}
		fair := scheduler.NewFair(plan, nil)

		segs := map[scheduler.JobID][]int{}
		submitted := 0
		steps := 0
		for submitted < n || fair.PendingJobs() > 0 {
			steps++
			if steps > 10000 {
				return false
			}
			if submitted < n && (rng.Intn(2) == 0 || fair.PendingJobs() == 0) {
				id := scheduler.JobID(submitted + 1)
				if err := fair.Submit(scheduler.JobMeta{ID: id, File: "input"}, 0); err != nil {
					return false
				}
				submitted++
				continue
			}
			r, ok := fair.NextRound(0)
			if !ok {
				return false
			}
			if len(r.Jobs) != 1 {
				return false // fair never merges
			}
			segs[r.Jobs[0].ID] = append(segs[r.Jobs[0].ID], r.Segment)
			fair.RoundDone(r, 0)
		}
		if len(segs) != n {
			return false
		}
		for _, ss := range segs {
			if len(ss) != k {
				return false
			}
			for i, seg := range ss {
				if seg != i {
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

// Property, for each of the four seal rules of the gated queues (FIFO,
// MRShare, window MRShare, S^3 without its circular scan) under random
// arrivals,
// clock steps and lost rounds:
//   - every job completes exactly once;
//   - a batch's rounds scan segments 0..k-1 in order, each carrying the
//     whole batch, and only the last completes it;
//   - batches start in submission order, and their membership obeys
//     the rule;
//   - FreshJobs, Tagged and SubJobReduce match the round shape;
//   - a lost round re-forms identically;
//   - only MRShare's predetermined sizes can leave a batch stalled.
func TestBatchSealRuleProperty(t *testing.T) {
	type sealCase struct {
		name string
		// build returns the queue and its seal rule.
		build           func(plan *dfs.SegmentPlan, rng *rand.Rand, n int) (*core.S3, sealRule, error)
		tagged, subJobs bool
	}
	cases := []sealCase{
		{
			name: "mrshare", tagged: true,
			build: func(plan *dfs.SegmentPlan, rng *rand.Rand, n int) (*core.S3, sealRule, error) {
				var sizes []int // a random split of n
				for left := n; left > 0; {
					sz := rng.Intn(left) + 1
					sizes = append(sizes, sz)
					left -= sz
				}
				q, err := core.NewMRShare(plan, sizes, nil)
				return q, func(idx int, members, _ []scheduler.JobID, _ map[scheduler.JobID]vclock.Time, _ vclock.Time) bool {
					return len(members) == sizes[idx]
				}, err
			},
		},
		{
			name: "window", tagged: true,
			build: func(plan *dfs.SegmentPlan, rng *rand.Rand, _ int) (*core.S3, sealRule, error) {
				window, maxBatch := vclock.Duration(rng.Intn(50)+1), rng.Intn(5)+1
				q, err := core.NewWindowMRShare(plan, window, maxBatch, nil)
				return q, func(_ int, members, waiting []scheduler.JobID, at map[scheduler.JobID]vclock.Time, now vclock.Time) bool {
					expiry := at[members[0]].Add(window)
					for _, id := range members {
						if at[id] >= expiry {
							return false
						}
					}
					if len(members) == maxBatch {
						return true
					}
					// Sealed short of the cap: only by expiry, and with no
					// waiting job that arrived before it.
					return len(members) < maxBatch && now >= expiry &&
						(len(waiting) == len(members) || at[waiting[len(members)]] >= expiry)
				}, err
			},
		},
		{
			name: "fifo",
			build: func(plan *dfs.SegmentPlan, _ *rand.Rand, _ int) (*core.S3, sealRule, error) {
				f, err := core.NewFIFO([]*dfs.SegmentPlan{plan}, nil)
				if err != nil {
					return nil, nil, err
				}
				q, _ := f.Queue(plan.File().Name) // the file's own queue, without the arbiter
				return q, func(_ int, members, _ []scheduler.JobID, _ map[scheduler.JobID]vclock.Time, _ vclock.Time) bool {
					return len(members) == 1
				}, nil
			},
		},
		{
			name: "nocircular", subJobs: true,
			build: func(plan *dfs.SegmentPlan, _ *rand.Rand, _ int) (*core.S3, sealRule, error) {
				return core.NewNoCircular(plan, nil), func(_ int, members, waiting []scheduler.JobID, _ map[scheduler.JobID]vclock.Time, _ vclock.Time) bool {
					return len(members) == len(waiting) // everyone waiting when the pass ends
				}, nil
			},
		},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				if err := sealScenario(rand.New(rand.NewSource(seed)), sc.build, sc.tagged, sc.subJobs, sc.name == "mrshare"); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

// sealRule checks the idx-th batch, starting at now with members, a
// prefix of the jobs that were waiting then.
type sealRule func(idx int, members, waiting []scheduler.JobID, at map[scheduler.JobID]vclock.Time, now vclock.Time) bool

// sealScenario is one seeded run; only a queue that mayStall (MRShare's
// predetermined sizes) can wait on arrivals alone.
func sealScenario(rng *rand.Rand, build func(*dfs.SegmentPlan, *rand.Rand, int) (*core.S3, sealRule, error), tagged, subJobs, mayStall bool) error {
	n, k := rng.Intn(10)+1, rng.Intn(4)+1
	f, err := dfs.MustStore(2, 1).AddMetaFile("input", k, 64)
	if err != nil {
		return err
	}
	plan, err := dfs.PlanSegments(f, 1) // k segments
	if err != nil {
		return err
	}
	b, obeys, err := build(plan, rng, n)
	if err != nil {
		return err
	}

	at := map[scheduler.JobID]vclock.Time{}
	done := map[scheduler.JobID]int{}
	var waiting, cur []scheduler.JobID // submitted but not started; the running batch
	now := vclock.Time(0)
	submitted, batches, seg := 0, 0, 0
	for steps := 0; submitted < n || b.PendingJobs() > 0; steps++ {
		if steps > 10000 {
			return fmt.Errorf("no progress: %d of %d submitted, %d pending", submitted, n, b.PendingJobs())
		}
		if submitted < n && rng.Intn(2) == 0 {
			id := scheduler.JobID(submitted + 1)
			if err := b.Submit(scheduler.JobMeta{ID: id, File: "input"}, now); err != nil {
				return err
			}
			if b.Stalled() && !mayStall {
				return fmt.Errorf("stalled with %d pending; only a predetermined batch size waits on arrivals alone", b.PendingJobs())
			}
			at[id] = now
			waiting = append(waiting, id)
			submitted++
			now = now.Add(vclock.Duration(rng.Intn(20)))
			continue
		}
		r, ok := b.NextRound(now)
		if !ok {
			if wake, wok := b.NextWake(now); wok && wake > now {
				now = wake
			} else if submitted == n {
				return fmt.Errorf("idle with %d pending and no timer", b.PendingJobs())
			}
			continue
		}
		if rng.Intn(4) == 0 { // the round is lost and must re-form as it was
			b.RequeueRound(r, now)
			again, ok := b.NextRound(now)
			if !ok || again.Segment != r.Segment || !slices.Equal(again.JobIDs(), r.JobIDs()) {
				return fmt.Errorf("lost round %+v re-formed as %+v", r, again)
			}
		}
		members := r.JobIDs()
		if cur == nil {
			if len(members) == 0 || len(members) > len(waiting) || !slices.Equal(members, waiting[:len(members)]) {
				return fmt.Errorf("batch %v starts, waiting %v", members, waiting)
			}
			if !obeys(batches, members, waiting, at, now) {
				return fmt.Errorf("batch %d %v at t=%v breaks its seal rule (arrivals %v)", batches, members, now, at)
			}
			cur, waiting, seg = members, waiting[len(members):], 0
			batches++
		}
		last := seg == k-1
		switch {
		case r.Segment != seg || !slices.Equal(members, cur):
			return fmt.Errorf("round %+v, want segment %d of batch %v", r, seg, cur)
		case r.Tagged != tagged || r.SubJobReduce != subJobs || (r.FreshJobs == 1) != (seg == 0 || subJobs):
			return fmt.Errorf("round %+v has the wrong shape", r)
		case last != slices.Equal(r.Completes, members) || (!last && len(r.Completes) > 0):
			return fmt.Errorf("round %+v of %d completes %v", r, k, r.Completes)
		}
		now = now.Add(vclock.Duration(rng.Intn(5)) + 1)
		for _, id := range b.RoundDone(r, now) {
			done[id]++
		}
		if seg++; seg == k {
			cur = nil
		}
	}
	for id := scheduler.JobID(1); id <= scheduler.JobID(n); id++ {
		if done[id] != 1 {
			return fmt.Errorf("job %d completed %d times", id, done[id])
		}
	}
	return nil
}
