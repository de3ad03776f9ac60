package status

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
)

type fakeCluster struct {
	workers                []comms.WorkerInfo
	repairs                int64
	recomputes, mismatches int64
}

func (f *fakeCluster) ClusterSnapshot() []comms.WorkerInfo { return f.workers }
func (f *fakeCluster) ShuffleRepairs() (int64, int64)      { return f.repairs, 0 }
func (f *fakeCluster) ResultRecomputes() (int64, int64)    { return f.recomputes, f.mismatches }

func TestClusterEndpoint(t *testing.T) {
	srv := NewServer("s3")
	h := srv.Handler()

	// Without a source the endpoint 404s.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unconfigured /cluster = %d, want 404", rec.Code)
	}

	src := &fakeCluster{workers: []comms.WorkerInfo{
		{ID: "w0", TaskAddr: "10.0.0.1:7001", State: comms.Joined.String(), HeartbeatMisses: 1},
		{ID: "w1", TaskAddr: "10.0.0.2:7001", State: comms.Suspect.String()},
		{ID: "w2", TaskAddr: "10.0.0.3:7001", State: comms.Dead.String(), Reconnects: 2},
	}}
	srv.SetCluster(src)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster = %d, want 200", rec.Code)
	}
	var view struct {
		Live    int                `json:"live"`
		Workers []comms.WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	// Joined + suspect count as live; dead does not.
	if view.Live != 2 {
		t.Errorf("live = %d, want 2", view.Live)
	}
	if len(view.Workers) != 3 {
		t.Fatalf("workers = %d, want 3", len(view.Workers))
	}
	if view.Workers[0].ID != "w0" || view.Workers[0].HeartbeatMisses != 1 {
		t.Errorf("worker[0] = %+v", view.Workers[0])
	}
	if view.Workers[2].State != "dead" || view.Workers[2].Reconnects != 2 {
		t.Errorf("worker[2] = %+v", view.Workers[2])
	}

	// Mutations are rejected.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /cluster = %d, want 405", rec.Code)
	}
}

// A daemon's run never ends, so /metrics takes its s3_cache_* from the
// heartbeat ledgers at scrape time, and its membership metrics from the
// table's rows: live values while the daemon runs, dead members' last
// ledgers included, and the same totals published again by the run's
// end — or by a second scrape — are not added twice.
func TestMetricsFoldClusterCacheLedgers(t *testing.T) {
	srv := NewServer("s3")
	reg := metrics.NewRegistry()
	rm := metrics.NewRunMetrics(reg)
	srv.SetRegistry(reg)
	src := &fakeCluster{workers: []comms.WorkerInfo{
		{ID: "w0", State: comms.Joined.String(), Tasks: comms.WireStats{
			CacheHits: 90, CacheMisses: 10, CacheEvictions: 7, CachePrefetches: 40, CacheBytes: 2048, CachePinnedBytes: 512,
		}},
		{ID: "w1", State: comms.Dead.String(), Tasks: comms.WireStats{
			CacheHits: 60, CacheMisses: 40, CachePrefetches: 20, CachePrefetchFailed: 1, CacheBytes: 1024,
		}},
	}}
	srv.SetCluster(src)
	h := srv.Handler()
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics = %d", rec.Code)
		}
		return rec.Body.String()
	}
	expect := func(body string, lines ...string) {
		t.Helper()
		for _, line := range lines {
			if !strings.Contains(body, line+"\n") {
				t.Errorf("/metrics lacks %q:\n%s", line, body)
			}
		}
	}
	first := []string{
		"s3_cache_hits_total 150", "s3_cache_misses_total 50", "s3_cache_evictions_total 7",
		"s3_cache_prefetches_total 60", "s3_cache_prefetch_failed_total 1",
		"s3_cache_hit_ratio 0.75", "s3_cache_bytes 3072", "s3_cache_pinned_bytes 512",
	}
	expect(scrape(), first...)
	expect(scrape(), first...)

	// The next heartbeat: counters move on, gauges follow both ways.
	src.workers[0].Tasks.CacheHits, src.workers[0].Tasks.CacheBytes = 140, 1024
	expect(scrape(), "s3_cache_hits_total 200", "s3_cache_hit_ratio 0.8", "s3_cache_bytes 2048")

	// The shuffle's counters come from the same source, under the same
	// rule: the gauge follows, the counters only rise.
	expect(scrape(), "s3_shuffle_stash_bytes 0", "s3_shuffle_fetched_bytes_total 0", "s3_shuffle_repair_maps_total 0")
	src.workers[0].Tasks.StashBytes, src.workers[0].Tasks.ShuffleFetchedBytes, src.repairs = 4096, 900, 3
	expect(scrape(), "s3_shuffle_stash_bytes 4096", "s3_shuffle_fetched_bytes_total 900", "s3_shuffle_repair_maps_total 3")
	src.workers[0].Tasks.StashBytes, src.workers[0].Tasks.ShuffleFetchedBytes = 0, 100 // a worker restarted: its ledger begins again
	expect(scrape(), "s3_shuffle_stash_bytes 0", "s3_shuffle_fetched_bytes_total 900", "s3_shuffle_repair_maps_total 3")

	// So do the map units and the passes that served them.
	expect(scrape(), "s3_map_tasks_total 0", "s3_map_passes_total 0")
	src.workers[0].Tasks.MapTasks, src.workers[0].Tasks.MapPasses = 40, 10
	src.workers[1].Tasks.MapTasks, src.workers[1].Tasks.MapPasses = 8, 8
	expect(scrape(), "s3_map_tasks_total 48", "s3_map_passes_total 18")

	// So do the result store's: both workers' ledgers summed, a dead
	// member's last one included, the master's own counts beside them.
	expect(scrape(), "s3_result_store_bytes 0", "s3_result_evictions_total 0", "s3_result_fetched_bytes_total 0", "s3_result_recomputes_total 0", "s3_result_recompute_mismatches_total 0")
	src.workers[0].Tasks.ResultBytes, src.workers[0].Tasks.ResultEvictions, src.workers[0].Tasks.ResultServedBytes = 5000, 4, 700
	src.workers[1].Tasks.ResultBytes, src.workers[1].Tasks.ResultEvictions, src.workers[1].Tasks.ResultServedBytes = 3000, 1, 300
	src.recomputes, src.mismatches = 2, 1
	want := []string{"s3_result_store_bytes 8000", "s3_result_evictions_total 5", "s3_result_fetched_bytes_total 1000", "s3_result_recomputes_total 2", "s3_result_recompute_mismatches_total 1"}
	expect(scrape(), want...)
	expect(scrape(), want...)
	src.workers[0].Tasks.ResultBytes, src.workers[0].Tasks.ResultEvictions, src.workers[0].Tasks.ResultServedBytes = 100, 0, 0 // restarted
	expect(scrape(), "s3_result_store_bytes 3100", "s3_result_evictions_total 5", "s3_result_fetched_bytes_total 1000")

	// The membership metrics come off the table too: a dead member is
	// not live, and every member's misses and reconnects count.
	expect(scrape(), "s3_workers_connected 1", "s3_heartbeat_misses_total 0", "s3_worker_reconnects_total 0")
	src.workers[0].HeartbeatMisses, src.workers[1].HeartbeatMisses, src.workers[1].Reconnects = 2, 3, 1
	expect(scrape(), "s3_workers_connected 1", "s3_heartbeat_misses_total 5", "s3_worker_reconnects_total 1")
	src.workers[1].State = comms.Suspect.String()
	expect(scrape(), "s3_workers_connected 2", "s3_heartbeat_misses_total 5", "s3_worker_reconnects_total 1")

	// The run ends and folds its own poll of the same workers.
	rm.SetCacheStats(dfs.CacheStats{Hits: 200, Misses: 50, Evictions: 7, Prefetches: 60, PrefetchFailed: 1, Bytes: 2048, PinnedBytes: 512})
	expect(scrape(), "s3_cache_hits_total 200", "s3_cache_misses_total 50", "s3_cache_prefetches_total 60")

	// Without a cluster the run's own fold is all there is, untouched.
	srv.SetCluster(nil)
	rm.SetCacheStats(dfs.CacheStats{Hits: 300, Misses: 50})
	expect(scrape(), "s3_cache_hits_total 300", "s3_cache_prefetches_total 60")
}
