package experiments

import "s3sched/internal/metrics"

// TaxonomyStudy reproduces §II-B's scheduler taxonomy as a measurement
// on the sparse normal workload: full-utilization FIFO (jobs block each
// other), partial-utilization fair scheduling (jobs progress
// concurrently but never share work), and S^3 (concurrent progress
// *with* shared scans). The paper's critique of the first two
// categories becomes three numbers per metric.
func TaxonomyStudy(p Params) ([]metrics.Summary, error) {
	return summarizeAll(p, wordcountArrivals(p.SparsePattern(), 1, 1), schemes("fifo", "fair", "s3"))
}
