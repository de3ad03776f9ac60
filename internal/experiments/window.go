package experiments

import (
	"fmt"

	"s3sched/internal/metrics"
	"s3sched/internal/vclock"
)

// WindowStudy goes one step beyond the paper: MRShare's predetermined
// batches assume query patterns known in advance (§II-C criticizes
// exactly this). The natural fix for MRShare when patterns are unknown
// is time-window batching. This study compares S^3 (the first row)
// against window batchers of the given window lengths on the sparse
// normal workload, showing that no window choice recovers S^3's
// response times: short windows forfeit sharing, long windows re-create
// MRShare's waiting.
func WindowStudy(p Params, windows []vclock.Duration) ([]metrics.Summary, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiments: WindowStudy needs window lengths")
	}
	list := schemes("s3")
	for _, w := range windows {
		scheme, err := parseLabelled(fmt.Sprintf("window-%s=window:%g:%d", w, w.Seconds(), NumJobs))
		if err != nil {
			return nil, err
		}
		list = append(list, scheme)
	}
	return summarizeAll(p, wordcountArrivals(p.SparsePattern(), 1, 1), list)
}
