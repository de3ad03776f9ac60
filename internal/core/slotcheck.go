package core

import (
	"fmt"
	"sort"
	"sync"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// SlotChecker implements §IV-D1 periodic slot checking: it collects
// per-node progress observations, estimates each node's processing
// speed with an exponentially weighted moving average, and excludes
// nodes whose estimated speed has fallen below a fraction of the
// cluster's best from the next round of computation. An excluded node
// that recovers (its observed speed rises back above the floor) is
// restored to the available list.
//
// Observations arrive from whatever is executing tasks — the real
// engine's task timings or the simulator's ground truth — on a
// user-chosen check interval; the checker itself is pull-based and
// holds no timers.
type SlotChecker struct {
	mu sync.Mutex
	// floor is the fraction of the fastest node's estimated speed
	// below which a node is excluded.
	floor float64
	// alpha is the EWMA weight given to each new observation.
	alpha float64
	est   map[dfs.NodeID]float64
	log   *trace.Log
	// excluded tracks the current exclusion set for trace/restore
	// reporting.
	excluded map[dfs.NodeID]bool
}

// NewSlotChecker builds a checker excluding nodes slower than
// floor x the fastest estimate. alpha in (0,1] weights new
// observations (1 = trust the latest sample entirely). log may be nil.
func NewSlotChecker(floor, alpha float64, log *trace.Log) *SlotChecker {
	if floor <= 0 || floor > 1 {
		panic(fmt.Sprintf("core: slot-check floor %v outside (0,1]", floor))
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: slot-check alpha %v outside (0,1]", alpha))
	}
	return &SlotChecker{
		floor:    floor,
		alpha:    alpha,
		est:      make(map[dfs.NodeID]float64),
		excluded: make(map[dfs.NodeID]bool),
		log:      log,
	}
}

// Observe records one progress measurement: node completed work at
// the given relative speed (1.0 = nominal; below 1 is slower). This is
// the "information of job type, start time and current process on each
// slave node" feedback of §IV-D1.
func (sc *SlotChecker) Observe(node dfs.NodeID, speed float64, at vclock.Time) {
	if speed <= 0 {
		panic(fmt.Sprintf("core: observed speed %v must be positive", speed))
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if prev, ok := sc.est[node]; ok {
		sc.est[node] = sc.alpha*speed + (1-sc.alpha)*prev
	} else {
		sc.est[node] = speed
	}
	_ = at
}

// Available returns the nodes currently considered usable, sorted by
// id, given the full node list. Unobserved nodes are assumed nominal.
// If exclusion would empty the list, every node stays available — a
// cluster where everything is "slow" has no stragglers, only a new
// normal.
func (sc *SlotChecker) Available(all []dfs.NodeID, at vclock.Time) []dfs.NodeID {
	sc.mu.Lock()
	defer sc.mu.Unlock()

	fastest := 0.0
	for _, n := range all {
		s, ok := sc.est[n]
		if !ok {
			s = 1.0
		}
		if s > fastest {
			fastest = s
		}
	}
	var avail []dfs.NodeID
	for _, n := range all {
		s, ok := sc.est[n]
		if !ok {
			s = 1.0
		}
		if s >= sc.floor*fastest {
			avail = append(avail, n)
			if sc.excluded[n] {
				delete(sc.excluded, n)
				sc.log.Addf(at, trace.NodeRestored, -1, -1, "node %d speed %.2f back above floor", n, s)
			}
		} else if !sc.excluded[n] {
			sc.excluded[n] = true
			sc.log.Addf(at, trace.NodeExcluded, -1, -1, "node %d speed %.2f below %.2f x fastest %.2f", n, s, sc.floor, fastest)
		}
	}
	if len(avail) == 0 {
		avail = append(avail, all...)
	}
	sort.Slice(avail, func(i, j int) bool { return avail[i] < avail[j] })
	return avail
}
