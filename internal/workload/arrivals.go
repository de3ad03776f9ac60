package workload

import (
	"fmt"
	"math/rand"

	"s3sched/internal/vclock"
)

// Arrival patterns reproduce Figure 1 (§III-B): dense patterns submit
// jobs nearly back-to-back; sparse patterns submit them in a few
// well-separated clumps. The paper's sparse experiments use 10 jobs in
// three groups of 3–4 dense jobs each (§V-D).

// DensePattern returns n arrival times spaced gap seconds apart
// starting at 0 — "J_{i+1} is submitted with no or a little fraction
// of time after J_i".
func DensePattern(n int, gap vclock.Duration) []vclock.Time {
	if n <= 0 {
		panic(fmt.Sprintf("workload: DensePattern needs positive n, got %d", n))
	}
	if gap < 0 {
		panic(fmt.Sprintf("workload: negative gap %v", gap))
	}
	out := make([]vclock.Time, n)
	for i := range out {
		out[i] = vclock.Time(0).Add(gap * vclock.Duration(i))
	}
	return out
}

// SparseGroups returns arrival times for groups of dense jobs: jobs
// within a group are intraGap apart; consecutive groups start interGap
// apart. groupSizes {3,3,4} with the paper's gaps reproduces Figure
// 1(b).
func SparseGroups(groupSizes []int, intraGap, interGap vclock.Duration) []vclock.Time {
	if len(groupSizes) == 0 {
		panic("workload: SparseGroups needs at least one group")
	}
	if intraGap < 0 || interGap < 0 {
		panic(fmt.Sprintf("workload: negative gaps %v/%v", intraGap, interGap))
	}
	var out []vclock.Time
	groupStart := vclock.Time(0)
	for gi, size := range groupSizes {
		if size <= 0 {
			panic(fmt.Sprintf("workload: group %d has size %d", gi, size))
		}
		for j := 0; j < size; j++ {
			out = append(out, groupStart.Add(intraGap*vclock.Duration(j)))
		}
		groupStart = groupStart.Add(interGap)
	}
	return out
}

// PoissonPattern returns n arrival times with exponentially
// distributed inter-arrival gaps of the given mean (a Poisson process
// — the standard model for independent user submissions). The seeded
// generator makes patterns reproducible.
func PoissonPattern(n int, meanGap vclock.Duration, seed int64) []vclock.Time {
	if n <= 0 {
		panic(fmt.Sprintf("workload: PoissonPattern needs positive n, got %d", n))
	}
	if meanGap <= 0 {
		panic(fmt.Sprintf("workload: PoissonPattern needs positive mean gap, got %v", meanGap))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]vclock.Time, n)
	t := vclock.Time(0)
	for i := range out {
		out[i] = t
		t = t.Add(vclock.Duration(rng.ExpFloat64() * float64(meanGap)))
	}
	return out
}
