package main

import (
	"context"
	"time"

	"s3sched/internal/journal"
)

// metricDef names one metric of BENCHMARK.json. The order here is the
// order of the printed tables.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression; zero for
	// per-layer metrics, which are not gated.
	Bound float64
}

var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "job_latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_latency_p90_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayerDefs: source is scrape (counters of the real processes read at
// the window's start and end), span (traced replica) or probe (timed
// direct calls); README.md says which is which.
var perLayerDefs = []metricDef{
	{Name: "proc.master_cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "proc.worker_cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "proc.master_rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.worker_rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "host.speed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "host.idle_share", Unit: "ratio", Better: "higher"},
	{Name: "status.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "status.submit_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "status.poll_rps", Unit: "1/s", Better: "lower"},
	{Name: "status.post_jobs_us", Unit: "us", Better: "lower"},
	{Name: "runtime.rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.round_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "core.rounds_per_job", Unit: "count", Better: "lower"},
	{Name: "core.batch_jobs_mean", Unit: "count", Better: "higher"},
	{Name: "core.sharing_factor", Unit: "ratio", Better: "higher"},
	{Name: "core.next_round_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.round_done_us_p50", Unit: "us", Better: "lower"},
	{Name: "dfs.block_reads_per_job", Unit: "count", Better: "lower"},
	{Name: "dfs.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dfs.cache_evictions_per_job", Unit: "count", Better: "lower"},
	{Name: "dfs.physical_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "dfs.read_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "dfs.read_miss_us_per_mb", Unit: "us/MB", Better: "lower"},
	{Name: "dfs.read_hit_us_per_mb", Unit: "us/MB", Better: "lower"},
	{Name: "mapreduce.map_tasks_per_job", Unit: "count", Better: "lower"},
	{Name: "mapreduce.map_fn_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.combine_fn_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.reduce_fn_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.map_block_ms_per_mb.wordcount", Unit: "ms/MB", Better: "lower"},
	{Name: "mapreduce.map_block_ms_per_mb.selection", Unit: "ms/MB", Better: "lower"},
	{Name: "mapreduce.map_block_allocs_per_mb.wordcount", Unit: "1/MB", Better: "lower"},
	{Name: "mapreduce.map_block_allocs_per_mb.selection", Unit: "1/MB", Better: "lower"},
	{Name: "mapreduce.reduce_partition_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "remote.exec_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "remote.exec_round_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "remote.unattributed_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "remote.gob_encode_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "remote.gob_decode_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "remote.wire_bytes_per_kv_byte", Unit: "ratio", Better: "lower"},
	{Name: "remote.rpc_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "remote.reduce_tasks_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.appends_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "journal.commit_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.admit_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.append_disk_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.encode_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "comms.control_frames_per_s", Unit: "1/s", Better: "lower"},
	{Name: "comms.control_bytes_per_s", Unit: "B/s", Better: "lower"},
	{Name: "seq.wordcount_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "seq.selection_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "seq.efficiency_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.replica_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "trace.replica_gap_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.spans_per_job", Unit: "count", Better: "lower"},
}

// layerRun is one traced invocation: a third of the seconds on the real
// processes for the scraped counters, a third on the traced replica, the
// rest of the time on probes.
type layerRun struct {
	metrics   map[string]float64
	e2e       e2eResult // the real-process cycle behind the scrape metrics
	tracePath string
}

func runLayers(ctx context.Context, e env, s spec, seed int64, seconds float64, ref *reference) (*layerRun, error) {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.Name] = 0 // a layer the workload bypasses reads zero
	}
	window := seconds / 3
	e2e, err := runEndToEnd(ctx, e, s, seed, window, 1, ref, true)
	if err != nil {
		return nil, err
	}
	cy := e2e.cycles[0]
	scrapeMetrics(m, e2e, cy)

	rep, err := runReplica(ctx, s, seed, s.Warmup/4, time.Duration(window*float64(time.Second)), e.outDir)
	if err != nil {
		return nil, err
	}
	spanMetrics(m, rep)
	m["host.speed_ratio"] = e2e.boots[0].hostSpeed
	m["host.idle_share"] = e.clock.probeShare(cy.load.warmAt, cy.load.endAt)
	// The replica and the sequential reference run on the wall clock, so
	// they are compared with the wall-clock rate.
	m["trace.replica_gap_ratio"] = ratio(m["trace.replica_jobs_per_s"], e2e.boots[0].rawJobsPerS)

	if err := probeAll(m, seed, e.outDir); err != nil {
		return nil, err
	}
	if m["dfs.read_miss_us_per_mb"], m["dfs.read_hit_us_per_mb"], err = probeReads(s, seed); err != nil {
		return nil, err
	}
	if rep.journal != "" {
		if m["journal.append_us_p50"], err = probeJournalAppend(rep.journal, e.outDir, journal.SyncNever); err != nil {
			return nil, err
		}
		if m["journal.append_disk_us_p50"], err = probeJournalAppend(rep.journal, e.outDir, journal.SyncAlways); err != nil {
			return nil, err
		}
	}
	seq := m["seq.wordcount_mb_per_s"]
	if s.Factory == "selection" {
		seq = m["seq.selection_mb_per_s"]
	}
	m["seq.efficiency_ratio"] = ratio(e2e.boots[0].rawJobsPerS*s.fileMB(), seq)

	return &layerRun{metrics: m, e2e: e2e, tracePath: rep.tracePath}, nil
}

// scrapeMetrics fills the metrics read from outside the real processes.
func scrapeMetrics(m map[string]float64, e2e e2eResult, cy cycle) {
	m["proc.master_cpu_ms_per_job"] = e2e.masterCPUms
	m["proc.worker_cpu_ms_per_job"] = e2e.workerCPUms
	m["proc.master_rss_peak_mb"] = cy.masterRSS
	m["proc.worker_rss_peak_mb"] = cy.workerRSS
	m["status.submit_ms_p50"] = quantile(cy.load.submitMs, 0.5)
	m["status.submit_ms_p90"] = quantile(cy.load.submitMs, 0.9)
	m["status.poll_rps"] = ratio(float64(cy.load.polls), e2e.windowS)

	d := cy.scrape
	jobsPS := d.jobs / d.seconds
	perJob := func(ledger string) float64 { return ratio(d.taskRate[ledger], jobsPS) }
	m["runtime.rounds_per_s"] = d.metrics["s3_rounds_total"] / d.seconds
	m["core.rounds_per_job"] = ratio(d.metrics["s3_job_rounds_sum"], d.metrics["s3_job_rounds_count"])
	m["core.batch_jobs_mean"] = ratio(d.metrics["s3_round_batch_jobs_sum"], d.metrics["s3_round_batch_jobs_count"])
	accesses := d.taskRate["CacheHits"] + d.taskRate["CacheMisses"]
	m["core.sharing_factor"] = ratio(d.taskRate["MapTasks"], accesses)
	m["dfs.block_reads_per_job"] = perJob("BlockReads")
	m["dfs.cache_hit_ratio"] = ratio(d.taskRate["CacheHits"], accesses)
	m["dfs.cache_evictions_per_job"] = perJob("CacheEvictions")
	m["dfs.physical_mb_per_s"] = d.taskRate["BytesScanned"] / (1 << 20)
	m["mapreduce.map_tasks_per_job"] = perJob("MapTasks")
	m["remote.reduce_tasks_per_job"] = perJob("ReduceTasks")
	m["journal.appends_per_job"] = ratio(d.metrics["s3_journal_appends_total"], d.jobs)
	m["journal.bytes_per_job"] = ratio(d.metrics["s3_journal_bytes"], d.jobs)
	m["comms.control_frames_per_s"] = d.controlFramesPS
	m["comms.control_bytes_per_s"] = d.controlBytesPS
}

// spanMetrics fills the metrics computed from the replica's spans.
func spanMetrics(m map[string]float64, rep *replicaResult) {
	jobs := float64(rep.jobs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	durs := map[string][]float64{}           // span name -> durations in us
	total := map[string]float64{}            // span name -> summed ms
	execMs := map[int]float64{}              // round -> ExecRound wall
	workerMs := map[int]map[string]float64{} // round -> lane -> user-function + read time
	for _, sp := range rep.spans {
		durs[sp.Name] = append(durs[sp.Name], us(sp.dur()))
		total[sp.Name] += ms(sp.dur())
		switch sp.Name {
		case "remote.exec_round":
			execMs[sp.Round] = ms(sp.dur())
		case "dfs.read", "mapreduce.map_fn", "mapreduce.combine_fn", "mapreduce.reduce_fn":
			if workerMs[sp.Round] == nil {
				workerMs[sp.Round] = map[string]float64{}
			}
			workerMs[sp.Round][sp.Lane] += ms(sp.dur())
		}
	}
	// What ExecRound's wall time holds beyond the slower worker's own
	// functions: gob, net/rpc, sort and partition, the master's merge.
	var unattributed float64
	for round, wall := range execMs {
		var slowest float64
		for _, w := range workerMs[round] {
			if w > slowest {
				slowest = w
			}
		}
		unattributed += wall - slowest
	}

	m["trace.replica_jobs_per_s"] = ratio(jobs, rep.seconds)
	m["trace.spans_per_job"] = ratio(float64(len(rep.spans)), m["trace.replica_jobs_per_s"]*rep.spanSeconds)
	m["runtime.round_wall_ms_p50"] = median(durs["runtime.round"]) / 1000
	m["runtime.idle_share"] = 1 - ratio(total["runtime.round"]/1000, rep.spanSeconds)
	m["core.next_round_us_p50"] = median(durs["core.next_round"])
	m["core.submit_us_p50"] = median(durs["core.submit"])
	m["core.round_done_us_p50"] = median(durs["core.round_done"])
	m["dfs.read_ms_per_job"] = ratio(total["dfs.read"], jobs)
	m["mapreduce.map_fn_ms_per_job"] = ratio(total["mapreduce.map_fn"], jobs)
	m["mapreduce.combine_fn_ms_per_job"] = ratio(total["mapreduce.combine_fn"], jobs)
	m["mapreduce.reduce_fn_ms_per_job"] = ratio(total["mapreduce.reduce_fn"], jobs)
	m["remote.exec_round_ms_p50"] = median(durs["remote.exec_round"]) / 1000
	m["remote.exec_round_ms_per_job"] = ratio(total["remote.exec_round"], jobs)
	m["remote.unattributed_ms_per_job"] = ratio(unattributed, jobs)
	m["remote.rpc_roundtrip_us"] = rep.rpcUs
	m["journal.commit_append_us_p50"] = median(durs["journal.commit_append"])
	m["journal.admit_append_us_p50"] = median(durs["journal.admit_append"])
}
