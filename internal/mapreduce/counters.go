package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Standard counter names, mirroring the quantities Table I of the
// paper reports for the wordcount workload.
const (
	CounterMapInputRecords    = "map.input.records"
	CounterMapInputBytes      = "map.input.bytes"
	CounterMapOutputRecords   = "map.output.records"
	CounterMapOutputBytes     = "map.output.bytes"
	CounterCombineOutRecords  = "combine.output.records"
	CounterReduceInputRecords = "reduce.input.records"
	CounterReduceOutRecords   = "reduce.output.records"
	CounterReduceOutBytes     = "reduce.output.bytes"
	CounterMapTasks           = "tasks.map"
	CounterReduceTasks        = "tasks.reduce"
)

// Counters is a concurrency-safe set of named int64 counters.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the current value of counter name (0 when unset).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders the counters sorted by name, one per line.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-24s %d\n", k, snap[k])
	}
	return b.String()
}
