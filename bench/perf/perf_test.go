package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", vals, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(vals, []float64{4, 1, 3, 2, 5}) {
		t.Errorf("quantile reordered its input: %v", vals)
	}
	if got := samplesBeyond(280, 0.9); got != 28 {
		t.Errorf("samplesBeyond(280, 0.9) = %d, want 28", got)
	}
}

// The acceptance check computes spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (s3 (clus) ter) S 1 4242 4242 0 -1 4194560 901 0 0 0 137 41 0 0 20 0 9 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(137+41) * 1000 / clockTick; got != want {
		t.Errorf("parseStatCPU = %v ms, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
	self, err := procCPUms(os.Getpid())
	if err != nil || self < 0 {
		t.Errorf("procCPUms(self) = %v, %v", self, err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ts3cluster\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MB", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	if mb, err := procPeakRSSmb(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSmb(self) = %v, %v", mb, err)
	}
}

func TestSlotRate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Slot 0 finishes a job every 0.5 s (3 completions, 2 intervals over
	// 1 s), slot 1 every 0.25 s (5 completions, 4 intervals over 1 s), and
	// slot 2 only once, which measures nothing.
	done := []completion{
		{slot: 0, at: at(0.1)}, {slot: 1, at: at(0.2)}, {slot: 1, at: at(0.45)}, {slot: 0, at: at(0.6)},
		{slot: 1, at: at(0.7)}, {slot: 2, at: at(0.8)}, {slot: 1, at: at(0.95)}, {slot: 0, at: at(1.1)}, {slot: 1, at: at(1.2)},
	}
	if got := slotRate(done, 3, nil); math.Abs(got-6) > 1e-9 {
		t.Errorf("slotRate = %v jobs/s, want 2 + 4", got)
	}
}

// The test binary doubles as the probe process, as the benchmark's does.
func TestMain(m *testing.M) {
	probeIfAsked()
	os.Exit(m.Run())
}

// Two CPUs: one at the reference speed throughout, the other at half of it
// for the first second. The clock runs at the harmonic mean of the two.
func TestHostClockWeighsTimeBySpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	hc := &hostClock{perCPU: [][]slice{
		{{start: at(0), end: at(0.7), speed: refSpeed}, {start: at(0.7), end: at(2), speed: refSpeed}},
		{{start: at(0), end: at(1), speed: refSpeed / 2}, {start: at(1), end: at(2), speed: refSpeed}},
	}}
	slow := 1 / 1.5 // mean slowness of 1 and 2, inverted
	for _, c := range []struct{ a, b, want float64 }{
		{0, 1, slow}, {1, 2, 1}, {0.5, 1.5, 0.5*slow + 0.5}, {0, 2, slow + 1},
		{-1, 0, slow}, {2, 3, 1}, // outside the readings the nearest holds
		{1, 1, 0},
	} {
		if got := hc.between(at(c.a), at(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("between(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := hc.speedRatio(at(0), at(2)); math.Abs(got-(slow+1)/2) > 1e-9 {
		t.Errorf("speedRatio = %v", got)
	}
	// CPU time is weighed like the wall time it was used in, latency too.
	r := loadResult{
		cpu: []cpuPoint{
			{at: at(0), cpuSample: cpuSample{master: 100, workers: 1000}},
			{at: at(1), cpuSample: cpuSample{master: 400, workers: 2500}},
			{at: at(2), cpuSample: cpuSample{master: 500, workers: 3500}},
		},
		done: []completion{{sent: at(0.5), at: at(1.5)}},
	}
	if m, w := r.cpuMs(hc); math.Abs(m-(300*slow+100)) > 1e-6 || math.Abs(w-(1500*slow+1000)) > 1e-6 {
		t.Errorf("cpuMs = %v, %v", m, w)
	}
	if got := r.latencies(hc)[0]; math.Abs(got-(0.5*slow+0.5)) > 1e-9 {
		t.Errorf("latency = %v", got)
	}
	var wall *hostClock
	if got := wall.between(at(0), at(2)); got != 2 {
		t.Errorf("a nil clock is the wall clock: between = %v", got)
	}
}

// Real probe processes: they report, waitFor sees it, stop leaves nothing.
func TestHostClockProbes(t *testing.T) {
	hc, err := startHostClock()
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int, len(hc.probes))
	for i, p := range hc.probes {
		pids[i] = p.Process.Pid
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	from := time.Now()
	to := from.Add(300 * time.Millisecond)
	if err := hc.waitFor(ctx, to); err != nil {
		hc.stop()
		t.Fatal(err)
	}
	if r := hc.speedRatio(from, to); r < 0.05 || r > 20 {
		t.Errorf("speed ratio %v: the probe kernel and refSpeed have come apart", r)
	}
	if sh := hc.probeShare(from, to); sh <= 0 || sh > 1.01 {
		t.Errorf("probe share %v", sh)
	}
	hc.stop()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("probe %d outlived stop", pid)
		}
	}
}

func TestParamStreamIsABalancedSeededCycle(t *testing.T) {
	s := workloads[0]
	a, b, other := newParamStream(s, 7), newParamStream(s, 7), newParamStream(s, 8)
	var seqA, seqOther []string
	seen := map[string]int{}
	for i := 0; i < 2*len(s.Params); i++ {
		pa := a.draw()
		if pb := b.draw(); pa != pb {
			t.Fatalf("same seed, draw %d: %q vs %q", i, pa, pb)
		}
		seqA, seqOther = append(seqA, pa), append(seqOther, other.draw())
		seen[pa]++
	}
	for _, p := range s.Params {
		if seen[p] != 2 {
			t.Errorf("parameter %q drawn %d times in two cycles, want 2", p, seen[p])
		}
	}
	if reflect.DeepEqual(seqA, seqOther) {
		t.Errorf("seeds 7 and 8 gave the same order %v", seqA)
	}
}

func TestPrometheusParse(t *testing.T) {
	text := "# HELP s3_rounds_total rounds launched\n# TYPE s3_rounds_total counter\ns3_rounds_total 42\n" +
		"s3_job_rounds_bucket{le=\"16\"} 3\ns3_job_rounds_sum 48\ns3_job_rounds_count 3\n"
	got := parsePrometheus([]byte(text))
	want := map[string]float64{"s3_rounds_total": 42, "s3_job_rounds_sum": 48, "s3_job_rounds_count": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsePrometheus = %v, want %v", got, want)
	}
}

// fakeCluster is an admission API whose jobs finish a fixed delay after
// their POST, with doneAt stamps that put every fourth job before its
// predecessor: the out-of-order completion S^3 never produces.
type fakeCluster struct {
	mu     sync.Mutex
	posted map[int]time.Time
	next   int
	delay  time.Duration
}

func (f *fakeCluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		f.next++
		f.posted[f.next] = time.Now()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%d,"state":"queued"}`, f.next)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/jobs/"))
		posted, ok := f.posted[id]
		if err != nil || !ok {
			http.NotFound(w, r)
			return
		}
		if time.Since(posted) < f.delay {
			fmt.Fprintf(w, `{"id":%d,"state":"running"}`, id)
			return
		}
		doneAt := float64(id)
		if id%4 == 0 {
			doneAt -= 1.5 // before job id-1
		}
		fmt.Fprintf(w, `{"id":%d,"state":"done","doneAt":%v}`, id, doneAt)
	default:
		http.NotFound(w, r)
	}
}

func TestPollerCountsOutOfOrderCompletions(t *testing.T) {
	fake := &fakeCluster{posted: map[int]time.Time{}, delay: 15 * time.Millisecond}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	s := spec{Factory: "wordcount", NumReduce: 2, Params: []string{"a", "b"}}
	ld := &loader{
		base: srv.URL, factory: s.Factory, numReduce: s.NumReduce, params: newParamStream(s, 1),
		inFlight: 2, warmup: 4, window: 400 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := ld.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("failed = %d, want 0", res.failed)
	}
	if len(res.done) < 8 {
		t.Fatalf("only %d measured completions in %v", len(res.done), ld.window)
	}
	// Ids run 1..n in submission order; every fourth is a violation, and a
	// violating job's latency is recorded like any other.
	total := 4 + len(res.done)
	if want := total / 4; res.orderViolations < want-1 || res.orderViolations > want+1 {
		t.Errorf("order violations = %d over %d jobs, want about %d", res.orderViolations, total, want)
	}
	for _, lat := range res.latencies(nil) {
		if lat < fake.delay.Seconds() || lat > 1 {
			t.Errorf("latency %v s outside [%v, 1 s]", lat, fake.delay)
		}
	}
	if first, last := res.cpu[0].at, res.cpu[len(res.cpu)-1].at; !first.Equal(res.warmAt) || !last.Equal(res.endAt) {
		t.Errorf("CPU samples span %v..%v, the window %v..%v", first, last, res.warmAt, res.endAt)
	}
	if rate := slotRate(res.done, ld.inFlight, nil); rate <= 0 || rate > 2/fake.delay.Seconds() {
		t.Errorf("slot rate %v jobs/s, at most %v possible", rate, 2/fake.delay.Seconds())
	}
	if len(res.firstOf) != 2 {
		t.Errorf("first measured job known for %d parameters, want 2", len(res.firstOf))
	}
}

// benchmarkJSON mirrors the contract's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench/perf"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEndDefs))
	}
	var maxBound float64
	for i, m := range b.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if d := endToEndDefs[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v (largest %v)", d, maxBound)
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's name / unit / direction rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload against real master and worker processes
// with windows of a fraction of a second: the end-to-end pass, then the
// per-layer pass (real processes for the scraped counters, the traced
// replica, the probes), and checks that every metric BENCHMARK.json names
// is produced and finite and every output digest matches the reference.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real s3cluster processes")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	before := map[int]bool{}
	for _, pid := range otherClusters() {
		before[pid] = true
	}
	dir := t.TempDir()
	bin, err := buildCluster(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	clk, err := startHostClock()
	if err != nil {
		t.Fatal(err)
	}
	defer clk.stop()
	e := env{bin: bin, outDir: dir, clock: clk}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	// Seconds per workload: a window is a third of it and must let every
	// slot finish at least two jobs.
	seconds := map[string]float64{"wc-shared": 5.4, "scan-cold": 2.7, "sel-shuffle": 2.7, "admit-durable": 1.8}
	for _, s := range workloads {
		s.Warmup = s.InFlight * 2
		ref := newReference(s, 3)
		lr, err := runLayers(ctx, e, s, 3, seconds[s.Name], ref)
		if err != nil {
			t.Fatalf("%s layers: %v", s.Name, err)
		}
		if _, err := metricsOf(perLayerDefs, lr.metrics); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		// The pass's real-process boot yields the end-to-end metrics too.
		r := lr.e2e
		if r.failed != 0 || len(r.mismatches) != 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, mismatches %v", s.Name, r.attempted, r.failed, r.mismatches)
		}
		if r.orderViolations != 0 {
			t.Errorf("%s: %d jobs completed out of admission order", s.Name, r.orderViolations)
		}
		e2e, err := metricsOf(endToEndDefs, r.metrics())
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		for name, v := range e2e {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", s.Name, name, v.Value)
			}
		}
		m := lr.metrics
		if m["host.speed_ratio"] <= 0 || m["host.idle_share"] <= 0 || m["host.idle_share"] >= 1 {
			t.Errorf("%s: the probes read speed %v, idle share %v", s.Name, m["host.speed_ratio"], m["host.idle_share"])
		}
		if journaled := m["journal.appends_per_job"] > 0; journaled != s.Journal {
			t.Errorf("%s: journal.appends_per_job = %v on a workload with Journal=%v", s.Name, m["journal.appends_per_job"], s.Journal)
		}
		if m["trace.spans_per_job"] <= 0 || m["remote.exec_round_ms_p50"] <= 0 || m["mapreduce.map_fn_ms_per_job"] <= 0 {
			t.Errorf("%s: the replica recorded no spans: %v", s.Name, m)
		}
		if fi, err := os.Stat(lr.tracePath); err != nil || fi.Size() == 0 {
			t.Errorf("%s: trace file %s: %v", s.Name, lr.tracePath, err)
		}
	}
	for _, pid := range otherClusters() {
		if !before[pid] {
			t.Errorf("s3cluster process %d outlived the test", pid)
		}
	}
}
