package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary of the traced replica.
// Spans live in memory until the replica ends and are then written as
// Chrome trace-event JSON.
type span struct {
	Name       string
	Lane       string        // "master", "worker0", "worker1"
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // index of the span that caused this one, -1 for none
	Job, Round int           // -1 when the span belongs to no single job / round
	// Calls is the number of calls a span stands for: 1, except for
	// combiner and reducer spans, which sum one task's per-key calls.
	Calls int
}

func (s span) dur() time.Duration { return s.End - s.Start }

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// open records a span that is still running and returns its index, so
// children can name it as their parent before it ends.
func (r *recorder) open(s span) int {
	s.Calls = 1
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) close(i int) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(s span) {
	if s.Calls == 0 {
		s.Calls = 1
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeChromeTrace writes the spans in the trace-event format that
// chrome://tracing and Perfetto load: one complete ("X") event per span,
// one thread per lane.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "job": s.Job, "round": s.Round, "lane": s.Lane, "calls": s.Calls,
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
