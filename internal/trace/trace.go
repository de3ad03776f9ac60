// Package trace records structured scheduler events into a bounded
// ring buffer. Tests assert on the decision sequence a scheduler made;
// `s3bench demo` prints it for humans. Tracing is always cheap enough to
// leave on: appending an event is a mutex-protected slice write.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"s3sched/internal/vclock"
)

// Kind classifies an event.
type Kind int

const (
	// JobSubmitted records a job entering a scheduler.
	JobSubmitted Kind = iota
	// JobCompleted records a job leaving a scheduler with all work done.
	JobCompleted
	// RoundLaunched records a batch of work handed to the execution engine.
	RoundLaunched
	// RoundFinished records the engine reporting a round complete.
	RoundFinished
	// SubJobAligned records a sub-job being aligned into a waiting batch.
	SubJobAligned
	// SegmentAdvanced records the circular cursor moving to a new segment.
	SegmentAdvanced
	// NodeExcluded records the slot checker removing a slow node.
	NodeExcluded
	// NodeRestored records a previously slow node rejoining the pool.
	NodeRestored
	// BatchAdjusted records dynamic sub-job adjustment rewriting a
	// waiting batch.
	BatchAdjusted
	// SubJobRequeued records a sub-job returned to the queue after its
	// round was lost; the segment cursor does not advance past it.
	SubJobRequeued
	// TaskDispatched records a master issuing a task call; its Detail
	// starts with "corr=<id>", which names the call and its attempts.
	TaskDispatched
	// WorkerRegistered records a worker joining the cluster through the
	// control plane (or dialled by the master), or a member the master's
	// table held when its trace was set; Detail carries the worker id
	// and its task address.
	WorkerRegistered
	// WorkerLost records the master declaring a worker dead — broken
	// connection or heartbeat silence past the dead deadline.
	WorkerLost
	// WorkerRejoined records a restarted worker re-registering under
	// its old identity, replacing the dead incarnation mid-run.
	WorkerRejoined
	// JournalRecovered records a master booting from a non-empty
	// write-ahead journal; Detail carries how many jobs were resumed
	// from the snapshot and how many were resubmitted from scratch.
	JournalRecovered
	// TaskDeadlineExceeded records a worker RPC cancelled by the
	// per-task deadline watchdog; the task fails over to the next live
	// worker exactly like a transport error.
	TaskDeadlineExceeded
)

var kindNames = map[Kind]string{
	JobSubmitted:     "job-submitted",
	JobCompleted:     "job-completed",
	RoundLaunched:    "round-launched",
	RoundFinished:    "round-finished",
	SubJobAligned:    "subjob-aligned",
	SegmentAdvanced:  "segment-advanced",
	NodeExcluded:     "node-excluded",
	NodeRestored:     "node-restored",
	BatchAdjusted:    "batch-adjusted",
	SubJobRequeued:   "subjob-requeued",
	TaskDispatched:   "task-dispatched",
	WorkerRegistered: "worker-registered",
	WorkerLost:       "worker-lost",
	WorkerRejoined:   "worker-rejoined",

	JournalRecovered:     "journal-recovered",
	TaskDeadlineExceeded: "task-deadline-exceeded",
}

// String returns the stable lowercase name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded scheduler decision.
type Event struct {
	At   vclock.Time
	Kind Kind
	// Job is the job the event concerns, or -1 when not job-specific.
	Job int
	// Segment is the segment index concerned, or -1.
	Segment int
	// Detail is a free-form human-readable annotation.
	Detail string
}

// String renders the event on one line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-17s", e.At, e.Kind)
	if e.Job >= 0 {
		fmt.Fprintf(&b, " job=%d", e.Job)
	}
	if e.Segment >= 0 {
		fmt.Fprintf(&b, " seg=%d", e.Segment)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// Log is a bounded ring buffer of events plus a bounded store of
// hierarchical spans (see span.go). The zero value is unusable; use
// New. A nil *Log is valid and discards all events and spans, so
// components can accept an optional trace without nil checks at every
// call site.
type Log struct {
	mu      sync.Mutex
	cap     int
	events  []Event // a ring once full: the oldest event is at head
	head    int
	dropped int

	spans        []Span
	spanIdx      map[SpanID]int
	nextSpan     SpanID
	droppedSpans int
}

// New returns a log that retains at most capacity events (discarding
// the oldest when full) and at most capacity spans (refusing new ones
// when full, so parents are never evicted from under their children).
// Capacity must be positive.
func New(capacity int) (*Log, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: capacity must be positive, got %d", capacity)
	}
	return &Log{cap: capacity, nextSpan: 1}, nil
}

// MustNew is New, panicking on error. For tests and static capacities.
func MustNew(capacity int) *Log {
	l, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return l
}

// Add appends an event. Safe on a nil receiver (no-op).
func (l *Log) Add(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < l.cap {
		l.events = append(l.events, e)
		return
	}
	l.events[l.head] = e
	l.head = (l.head + 1) % l.cap
	l.dropped++
}

// Addf records an event with a formatted detail string. Safe on nil.
func (l *Log) Addf(at vclock.Time, k Kind, job, segment int, format string, args ...any) {
	if l == nil {
		return
	}
	l.Add(Event{At: at, Kind: k, Job: job, Segment: segment, Detail: fmt.Sprintf(format, args...)})
}

// Events returns a copy of the retained events in order of recording.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.head:]...)
	return append(out, l.events[:l.head]...)
}

// Dropped reports how many events were discarded due to capacity.
func (l *Log) Dropped() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// OfKind returns the retained events of kind k, in order.
func (l *Log) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// String renders all retained events, one per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
