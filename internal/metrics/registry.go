package metrics

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds live counters, gauges and fixed-bucket histograms and
// exposes them in Prometheus text format. Registry instruments a
// running system: all operations are concurrency-safe and cheap enough
// to leave on. Export is deterministic — metrics sort by name,
// floats format minimally — so two identical seeded runs produce
// byte-identical snapshots.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]any // *Counter | *Gauge | *Histogram
	helpFor map[string]string
}

// metricName enforces the Prometheus naming charset.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any), helpFor: make(map[string]string)}
}

func (r *Registry) register(name, help string, build func() any) any {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := build()
	r.byName[name] = m
	r.helpFor[name] = help
	return m
}

// Counter returns the named monotonically-increasing counter,
// registering it on first use. Registering a name twice with different
// metric types panics — that is a programming error.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a counter", name, m))
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a gauge", name, m))
	}
	return g
}

// Histogram returns the named histogram with the given upper bucket
// bounds (an implicit +Inf bucket is always appended), registering it
// on first use. Bounds must be strictly increasing. Re-registering
// with different bounds returns the original histogram — bounds are
// fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %q bucket bounds not increasing: %v", name, bounds))
		}
	}
	m := r.register(name, help, func() any {
		return &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a histogram", name, m))
	}
	return h
}

// Counter is a monotonically-increasing float64.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. Negative deltas panic: counters only go up.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter decrement by %v", delta))
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// RaiseTo lifts the counter to total when that is higher: it mirrors a
// count kept elsewhere, and the same reading published twice adds nothing.
func (c *Counter) RaiseTo(total float64) {
	c.mu.Lock()
	c.v = max(c.v, total)
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is an instantaneous float64 that can move both ways.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed cumulative-style buckets:
// counts[i] observations fell at or below bounds[i]; the final slot is
// the +Inf overflow. Fixed buckets keep Observe O(log n) and lock-short,
// and make snapshots of identical runs byte-identical.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1, per-bucket (non-cumulative)
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket; last is +Inf overflow
	Sum    float64
	Count  uint64
}

// Snapshot returns a consistent copy.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// fmtFloat renders a float the way Prometheus clients do: minimal
// round-trip representation, stable across runs.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	metricsCopy := make(map[string]any, len(r.byName))
	helpCopy := make(map[string]string, len(r.helpFor))
	for name, m := range r.byName {
		metricsCopy[name] = m
		helpCopy[name] = r.helpFor[name]
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		if help := helpCopy[name]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		}
		switch m := metricsCopy[name].(type) {
		case *Counter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(m.Value()))
		case *Gauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(m.Value()))
		case *Histogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			s := m.Snapshot()
			var cum uint64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, fmtFloat(bound), cum)
			}
			cum += s.Counts[len(s.Counts)-1]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", name, fmtFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", name, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
