package trace

import "s3sched/internal/vclock"

// SpanID names a recorded span. 0 is the absent span: the parent of a
// root, or the result of starting a span on a nil or full log. Every
// span operation accepts id 0 and does nothing, so callers never need
// to check whether a start succeeded.
type SpanID int

// Arg is one key/value tag on a span. Values are strings so exporters
// never have to guess at types; callers format numbers themselves.
type Arg struct {
	Key   string
	Value string
}

// Span is one timed operation in a run's hierarchy: run → round →
// scan-stage/reduce-stage → per-job sub-job. Start and End are vclock
// times (virtual for sims, wall-derived for cluster runs), so span
// trees from a simulator and the deployed master are diffable
// shape-for-shape even though their absolute times differ.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Name is the operation ("run", "round", "scan-stage", ...).
	Name string
	// Cat groups spans for exporters ("driver", "jqm", "engine", ...).
	Cat   string
	Start vclock.Time
	End   vclock.Time
	// Ended reports whether EndSpan was called; an unended span is
	// exported as a zero-duration open span.
	Ended bool
	// Job is the job the span concerns, or -1 when not job-specific.
	Job int
	// Segment is the segment index concerned, or -1.
	Segment int
	Args    []Arg
}

// SpanOpts carries the optional fields of StartSpan. Job and Segment
// default to 0, which is a valid id; callers that do not mean job 0 or
// segment 0 must set them to -1 explicitly (every call site in this
// repo does).
type SpanOpts struct {
	Parent  SpanID
	Cat     string
	Job     int
	Segment int
	Args    []Arg
}

// StartSpan records the start of an operation and returns its id, or 0
// if the log is nil or its span store is full. A full store drops the
// new span (and counts it in DroppedSpans) rather than evicting an old
// one, so a retained span's parent chain is always intact.
func (l *Log) StartSpan(at vclock.Time, name string, o SpanOpts) SpanID {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.cap {
		l.droppedSpans++
		return 0
	}
	id := l.nextSpan
	l.nextSpan++
	if l.spanIdx == nil {
		l.spanIdx = make(map[SpanID]int)
	}
	l.spanIdx[id] = len(l.spans)
	l.spans = append(l.spans, Span{
		ID:      id,
		Parent:  o.Parent,
		Name:    name,
		Cat:     o.Cat,
		Start:   at,
		End:     at,
		Job:     o.Job,
		Segment: o.Segment,
		Args:    append([]Arg(nil), o.Args...),
	})
	return id
}

// EndSpan closes span id at the given time, appending any extra args.
// Safe on a nil log, on id 0, on an unknown id, and on a span already
// ended (the later end wins, matching retry semantics).
func (l *Log) EndSpan(id SpanID, at vclock.Time, args ...Arg) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.spanIdx[id]
	if !ok {
		return
	}
	s := &l.spans[i]
	s.End = at
	s.Ended = true
	s.Args = append(s.Args, args...)
}

// Spans returns a copy of the retained spans in start order.
func (l *Log) Spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	for i := range out {
		out[i].Args = append([]Arg(nil), l.spans[i].Args...)
	}
	return out
}

// DroppedSpans reports how many StartSpan calls were refused because
// the span store was full.
func (l *Log) DroppedSpans() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.droppedSpans
}
