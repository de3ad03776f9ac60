package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same name returns the same instrument.
	if reg.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(5)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) should panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter should panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	NewRegistry().Counter("bad name!", "")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4; 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds should panic")
		}
	}()
	NewRegistry().Histogram("h", "", []float64{1, 1})
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("s3_rounds_total", "rounds launched").Add(3)
	reg.Gauge("s3_queue_depth", "queue depth").Set(2)
	h := reg.Histogram("s3_job_response_seconds", "response times", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(9)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE s3_rounds_total counter",
		"s3_rounds_total 3",
		"# TYPE s3_queue_depth gauge",
		"s3_queue_depth 2",
		"# TYPE s3_job_response_seconds histogram",
		`s3_job_response_seconds_bucket{le="1"} 1`,
		`s3_job_response_seconds_bucket{le="5"} 2`,
		`s3_job_response_seconds_bucket{le="+Inf"} 3`,
		"s3_job_response_seconds_sum 12.5",
		"s3_job_response_seconds_count 3",
		"# HELP s3_rounds_total rounds launched",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Metrics sort by name: histogram before gauge before counter here.
	if strings.Index(out, "s3_job_response_seconds") > strings.Index(out, "s3_queue_depth") {
		t.Errorf("exposition not sorted by name:\n%s", out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() string {
		reg := NewRegistry()
		rm := NewRunMetrics(reg)
		rm.JobResponse.Observe(12.25)
		rm.JobResponse.Observe(98.5)
		rm.RoundsTotal.Add(7)
		rm.QueueDepth.Set(3)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("identical registries rendered differently:\n%s\n----\n%s", a, b)
	}
}

// TestConcurrentRegistryExactCounts hammers Add/Observe from writers
// while readers render snapshots, then checks totals are exact — no
// lost updates, no torn reads.
func TestConcurrentRegistryExactCounts(t *testing.T) {
	const (
		writers = 8
		perG    = 1000
	)
	reg := NewRegistry()
	c := reg.Counter("hits_total", "")
	h := reg.Histogram("lat_seconds", "", []float64{0.5, 1, 2})
	g := reg.Gauge("depth", "")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%4) * 0.5)
				g.Set(float64(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 50; i++ {
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = h.Snapshot()
			}
		}()
	}
	// Concurrent get-or-create of the same instruments must return the
	// originals, never fork state.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if reg.Counter("hits_total", "") != c {
					t.Error("Counter forked under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != writers*perG {
		t.Fatalf("counter = %v, want %d", got, writers*perG)
	}
	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Fatalf("histogram count = %d, want %d", s.Count, writers*perG)
	}
	var sum uint64
	for _, n := range s.Counts {
		sum += n
	}
	if sum != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", sum, s.Count)
	}
}

func TestNewRunMetricsRegistersEverything(t *testing.T) {
	reg := NewRegistry()
	rm := NewRunMetrics(reg)
	rm.JobResponse.Observe(1)
	rm.JobResponse.Observe(0.003) // a wall-clock response: one layout from 50 µs to 5000 s
	rm.RoundDuration.Observe(2)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`s3_job_response_seconds_bucket{le="5e-05"} 0`,
		`s3_job_response_seconds_bucket{le="0.0025"} 0`,
		`s3_job_response_seconds_bucket{le="0.005"} 1`,
		`s3_job_response_seconds_bucket{le="1"} 2`,
		`s3_job_response_seconds_bucket{le="5000"} 2`,
		`s3_round_seconds_bucket{le="2.5"} 1`,
		"s3_rounds_total",
		"s3_queue_depth",
		"s3_virtual_time_seconds",
		"s3_requeued_rounds_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
	// Idempotent: a second NewRunMetrics on the same registry reuses
	// the same instruments.
	rm2 := NewRunMetrics(reg)
	if rm2.JobResponse != rm.JobResponse {
		t.Fatal("NewRunMetrics forked instruments")
	}
}
