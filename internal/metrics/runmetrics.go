package metrics

import "s3sched/internal/dfs"

// Standard bucket layouts. Durations run from what a real cluster does
// inside one round (50 µs) to the sims' multi-thousand-second heavy
// runs; counts cover batch widths and rounds-per-job on a 40-node
// cluster.
var (
	// DurationBuckets are upper bounds in seconds.
	DurationBuckets = []float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	// CountBuckets are upper bounds for small integer distributions.
	CountBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// RunMetrics bundles the standard instruments a driver run records,
// created against one Registry so /metrics exposes them all. Every
// field is safe for concurrent use; the whole struct may be nil-checked
// once and then used freely.
type RunMetrics struct {
	// JobResponse observes each surviving job's submission→completion
	// interval in seconds.
	JobResponse *Histogram
	// JobWaiting observes each job's submission→first-round interval.
	JobWaiting *Histogram
	// JobRounds observes how many rounds each completed job rode.
	JobRounds *Histogram
	// RoundDuration observes each round's total stage work
	// (scan + reduce).
	RoundDuration *Histogram
	// RoundScan and RoundReduce observe the stage components when the
	// executor splits stages (runtime.StageTimer).
	RoundScan   *Histogram
	RoundReduce *Histogram
	// BatchWidth observes how many sub-jobs shared each round's scan.
	BatchWidth *Histogram

	RoundsTotal         *Counter
	JobsSubmitted       *Counter
	JobsCompleted       *Counter
	RetriesTotal        *Counter
	FailedAttemptsTotal *Counter
	RequeuedRounds      *Counter
	RequeuedSubJobs     *Counter
	CacheHits           *Counter
	CacheMisses         *Counter
	CacheEvictions      *Counter
	CachePrefetches     *Counter
	CachePrefetchFailed *Counter

	// CacheHitRatio is hits/(hits+misses) as of the newest reading
	// (SetCacheStats); CacheBytes is the cached footprint and CachePinnedBytes
	// its pin-protected part. All stay zero when caching is off.
	CacheHitRatio    *Gauge
	CacheBytes       *Gauge
	CachePinnedBytes *Gauge

	// The distributed shuffle as of the newest reading (SetShuffleStats):
	// map output held on the workers, bytes reducers fetched from peers,
	// and map tasks re-run to replace output a lost worker held.
	ShuffleStashBytes   *Gauge
	ShuffleFetchedBytes *Counter
	ShuffleRepairMaps   *Counter

	// The workers' (block, job) map units and the (block, group) passes
	// over the records that served them, risen to the newest reading.
	MapTasks, MapPasses *Counter

	// Finished output kept on the workers, newest reading (SetResultStats).
	ResultStoreBytes   *Gauge
	ResultEvictions    *Counter
	ResultFetchedBytes *Counter
	ResultRecomputes   *Counter
	ResultMismatches   *Counter

	// The cluster membership table as of the newest scrape of it: live
	// (joined or suspect) workers, heartbeat deadlines the workers missed,
	// and re-registrations under an old identity. All stay zero without
	// a cluster.
	HeartbeatMisses  *Counter
	WorkerReconnects *Counter
	WorkersConnected *Gauge

	// JournalAppends counts records appended to the write-ahead journal;
	// JournalBytes is the journal file's current size. Both stay zero
	// when the daemon runs without -journal.
	JournalAppends *Counter
	JournalBytes   *Gauge
	// Recoveries counts journal recoveries this master has performed
	// over the journal's lifetime (replayed recovered records plus this
	// boot's); JobsRecovered counts jobs carried across the most recent
	// restart, resumed and resubmitted alike.
	Recoveries    *Counter
	JobsRecovered *Counter

	// QueueDepth is the number of submitted-but-incomplete jobs after
	// the most recent settled round.
	QueueDepth *Gauge
	// AdmissionQueue is the number of live-submitted jobs accepted by
	// the arrival source but not yet admitted into the scheduler,
	// sampled after each admission batch. Stays zero for trace replays,
	// whose arrivals deliver the moment they are due.
	AdmissionQueue *Gauge
	// VirtualTime is the run clock at last update, in seconds.
	VirtualTime *Gauge
}

// NewRunMetrics registers the standard run instruments on reg.
func NewRunMetrics(reg *Registry) *RunMetrics {
	return &RunMetrics{
		JobResponse:   reg.Histogram("s3_job_response_seconds", "per-job submission-to-completion time", DurationBuckets),
		JobWaiting:    reg.Histogram("s3_job_waiting_seconds", "per-job submission-to-first-round time", DurationBuckets),
		JobRounds:     reg.Histogram("s3_job_rounds", "rounds each completed job participated in", CountBuckets),
		RoundDuration: reg.Histogram("s3_round_seconds", "per-round scan+reduce stage work", DurationBuckets),
		RoundScan:     reg.Histogram("s3_round_scan_seconds", "per-round scan/map stage duration", DurationBuckets),
		RoundReduce:   reg.Histogram("s3_round_reduce_seconds", "per-round reduce stage duration", DurationBuckets),
		BatchWidth:    reg.Histogram("s3_round_batch_jobs", "sub-jobs sharing each round's scan", CountBuckets),

		RoundsTotal:         reg.Counter("s3_rounds_total", "rounds launched"),
		JobsSubmitted:       reg.Counter("s3_jobs_submitted_total", "jobs submitted to the scheduler"),
		JobsCompleted:       reg.Counter("s3_jobs_completed_total", "jobs completed"),
		RetriesTotal:        reg.Counter("s3_retries_total", "block attempts re-executed after a failure"),
		FailedAttemptsTotal: reg.Counter("s3_failed_attempts_total", "block-read attempts that failed"),
		RequeuedRounds:      reg.Counter("s3_requeued_rounds_total", "lost rounds returned to the scheduler"),
		RequeuedSubJobs:     reg.Counter("s3_requeued_subjobs_total", "sub-jobs riding requeued rounds"),
		CacheHits:           reg.Counter("s3_cache_hits_total", "block reads served from the node-local cache"),
		CacheMisses:         reg.Counter("s3_cache_misses_total", "block reads that went to disk"),
		CacheEvictions:      reg.Counter("s3_cache_evictions_total", "cached blocks discarded to fit the byte budget"),
		CachePrefetches:     reg.Counter("s3_cache_prefetches_total", "speculative readahead loads issued"),
		CachePrefetchFailed: reg.Counter("s3_cache_prefetch_failed_total", "readahead loads that failed"),

		HeartbeatMisses:  reg.Counter("s3_heartbeat_misses_total", "worker heartbeat deadlines missed by the control plane"),
		WorkerReconnects: reg.Counter("s3_worker_reconnects_total", "workers that re-registered after a restart"),

		WorkersConnected: reg.Gauge("s3_workers_connected", "live workers in the cluster membership table"),

		CacheHitRatio:    reg.Gauge("s3_cache_hit_ratio", "cache hits over total reads, cumulative"),
		CacheBytes:       reg.Gauge("s3_cache_bytes", "cached byte footprint"),
		CachePinnedBytes: reg.Gauge("s3_cache_pinned_bytes", "pin-protected cached bytes"),

		ShuffleStashBytes:   reg.Gauge("s3_shuffle_stash_bytes", "map output held on the workers for unfinished jobs"),
		ShuffleFetchedBytes: reg.Counter("s3_shuffle_fetched_bytes_total", "map output bytes reducers fetched from peer workers"),
		ShuffleRepairMaps:   reg.Counter("s3_shuffle_repair_maps_total", "map tasks re-run because no live worker held their output"),
		MapTasks:            reg.Counter("s3_map_tasks_total", "(block, job) map units the workers served"),
		MapPasses:           reg.Counter("s3_map_passes_total", "passes over a block's records that served the map units: one per block for all of a task's selections, one for all its word counts, else one per unit"),
		ResultStoreBytes:    reg.Gauge("s3_result_store_bytes", "finished jobs' output frames held on the workers"),
		ResultEvictions:     reg.Counter("s3_result_evictions_total", "output frames workers dropped to fit their result budget"),
		ResultFetchedBytes:  reg.Counter("s3_result_fetched_bytes_total", "output frame bytes the master fetched from workers"),
		ResultRecomputes:    reg.Counter("s3_result_recomputes_total", "finished jobs reduced again because their output was lost or evicted"),
		ResultMismatches:    reg.Counter("s3_result_recompute_mismatches_total", "recomputes whose receipts differed from the committed ones"),

		JournalAppends: reg.Counter("s3_journal_appends_total", "records appended to the write-ahead journal"),
		JournalBytes:   reg.Gauge("s3_journal_bytes", "write-ahead journal file size"),
		Recoveries:     reg.Counter("s3_recoveries_total", "journal recoveries performed over the journal's lifetime"),
		JobsRecovered:  reg.Counter("s3_jobs_recovered", "jobs carried across the most recent restart"),

		QueueDepth:     reg.Gauge("s3_queue_depth", "submitted-but-incomplete jobs after the last settled round"),
		AdmissionQueue: reg.Gauge("s3_admission_queue_jobs", "live-submitted jobs awaiting admission into the scheduler"),
		VirtualTime:    reg.Gauge("s3_virtual_time_seconds", "run clock at last update"),
	}
}

// SetCacheStats publishes a reading of the cumulative block-cache
// counters. Readings repeat and overlap — one per scrape from the workers'
// heartbeat ledgers, one from the run loop's poll when it ends — so the
// counters rise to a reading rather than grow by it; the gauges take it.
func (m *RunMetrics) SetCacheStats(cs dfs.CacheStats) {
	m.CacheHits.RaiseTo(float64(cs.Hits))
	m.CacheMisses.RaiseTo(float64(cs.Misses))
	m.CacheEvictions.RaiseTo(float64(cs.Evictions))
	m.CachePrefetches.RaiseTo(float64(cs.Prefetches))
	m.CachePrefetchFailed.RaiseTo(float64(cs.PrefetchFailed))
	m.CacheHitRatio.Set(cs.HitRatio())
	m.CacheBytes.Set(float64(cs.Bytes))
	m.CachePinnedBytes.Set(float64(cs.PinnedBytes))
}

// SetResultStats publishes a reading of the cluster's result-store
// counters, under the same rule as SetCacheStats.
func (m *RunMetrics) SetResultStats(storeBytes, evictions, fetchedBytes, recomputes, mismatches int64) {
	m.ResultStoreBytes.Set(float64(storeBytes))
	m.ResultEvictions.RaiseTo(float64(evictions))
	m.ResultFetchedBytes.RaiseTo(float64(fetchedBytes))
	m.ResultRecomputes.RaiseTo(float64(recomputes))
	m.ResultMismatches.RaiseTo(float64(mismatches))
}

// SetShuffleStats publishes a reading of the cluster's shuffle counters,
// under the same rule as SetCacheStats.
func (m *RunMetrics) SetShuffleStats(stashBytes, fetchedBytes, repairMaps int64) {
	m.ShuffleStashBytes.Set(float64(stashBytes))
	m.ShuffleFetchedBytes.RaiseTo(float64(fetchedBytes))
	m.ShuffleRepairMaps.RaiseTo(float64(repairMaps))
}
