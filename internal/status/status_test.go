package status

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

func TestStatusJSONAndHTML(t *testing.T) {
	s := NewServer("s3")
	s.Update(func(st *State) {
		st.Rounds = 7
		st.PendingJobs = 2
		st.DoneJobs = 1
		st.VirtualTime = 42.5
		st.LastRound = &RoundInfo{Segment: 3, Blocks: 4, BatchSize: 2, Jobs: []int{1, 2}}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 7 || st.Scheme != "s3" || st.LastRound == nil || st.LastRound.Segment != 3 {
		t.Errorf("state = %+v", st)
	}

	resp2, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	for _, want := range []string{"s3sched", "42.5", "segment 3", "status.json"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q:\n%s", want, body)
		}
	}

	resp3, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp3.StatusCode)
	}
}

func TestHooksPublishProgress(t *testing.T) {
	store := dfs.MustStore(2, 1)
	f, err := store.AddMetaFile("input", 4, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.New(plan, nil)
	srv := NewServer(sched.Name())

	exec := runtime.ExecutorFunc(func(scheduler.Round) (vclock.Duration, error) { return 10, nil })
	res, err := runtime.RunTrace(sched, exec, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "input"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "input"}, At: 5},
	}, runtime.Options{Hooks: srv.Hooks(sched)})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Snapshot()
	if st.Rounds != res.Rounds {
		t.Errorf("published rounds = %d, driver says %d", st.Rounds, res.Rounds)
	}
	if st.DoneJobs != 2 || st.PendingJobs != 0 {
		t.Errorf("state = %+v", st)
	}
	if st.LastRound == nil || len(st.LastRound.Completed) == 0 {
		t.Errorf("last round = %+v, want a completing round", st.LastRound)
	}
}

func TestServeAndClose(t *testing.T) {
	s := NewServer("x")
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer("s3")
	reg := metrics.NewRegistry()
	rm := metrics.NewRunMetrics(reg)
	rm.JobResponse.Observe(12.5)
	rm.RoundDuration.Observe(3.25)
	rm.RoundDuration.Observe(0.0007) // a daemon's round, in wall seconds
	rm.RoundsTotal.Inc()
	s.SetRegistry(reg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"s3_job_response_seconds_bucket",
		"s3_job_response_seconds_sum 12.5",
		`s3_round_seconds_bucket{le="0.0005"} 0`,
		`s3_round_seconds_bucket{le="0.001"} 1`,
		`s3_round_seconds_bucket{le="5"} 2`,
		"s3_rounds_total 1",
		"# TYPE s3_job_response_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestMetricsEndpointWithoutRegistry(t *testing.T) {
	ts := httptest.NewServer(NewServer("s3").Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without registry status = %d, want 404", resp.StatusCode)
	}
}

func TestPprofEndpoint(t *testing.T) {
	ts := httptest.NewServer(NewServer("s3").Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index missing profile listing:\n%.200s", body)
	}
}

func TestSetCacheRendersDashboardRow(t *testing.T) {
	s := NewServer("s3")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before SetCache: no cache row in HTML, null in JSON.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "block cache") {
		t.Fatal("cache row rendered before SetCache")
	}

	s.SetCache(dfs.CacheStats{Hits: 30, Misses: 10, Evictions: 2})
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"block cache", "30 hits / 10 misses", "75.0% hit ratio", "2 evictions"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q\n%s", want, body)
		}
	}

	resp, err = http.Get(ts.URL + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.Hits != 30 || st.Cache.HitRatio != 0.75 {
		t.Errorf("json cache = %+v", st.Cache)
	}
}
