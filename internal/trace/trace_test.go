package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestAddAndEvents(t *testing.T) {
	l := MustNew(10)
	l.Add(Event{At: 1, Kind: JobSubmitted, Job: 0, Segment: -1})
	l.Add(Event{At: 2, Kind: RoundLaunched, Job: -1, Segment: 3})
	ev := l.Events()
	if len(ev) != 2 {
		t.Fatalf("len(Events) = %d, want 2", len(ev))
	}
	if ev[0].Kind != JobSubmitted || ev[1].Segment != 3 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestRingEviction(t *testing.T) {
	l := MustNew(3)
	for i := 0; i < 5; i++ {
		l.Add(Event{At: 0, Kind: JobSubmitted, Job: i, Segment: -1})
	}
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("len = %d, want 3", len(ev))
	}
	if ev[0].Job != 2 || ev[2].Job != 4 {
		t.Fatalf("oldest events should be evicted, got %+v", ev)
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
}

// Past capacity the log wraps around its ring many times over; after
// every add it holds exactly the last cap events, oldest first.
func TestRingWraparound(t *testing.T) {
	const capacity = 5
	l := MustNew(capacity)
	for i := 0; i < 3*capacity; i++ {
		l.Add(Event{Kind: JobSubmitted, Job: i, Segment: -1})
		ev := l.Events()
		first := max(0, i+1-capacity)
		if len(ev) != i+1-first {
			t.Fatalf("after %d adds len = %d, want %d", i+1, len(ev), i+1-first)
		}
		for k, e := range ev {
			if e.Job != first+k {
				t.Fatalf("after %d adds event %d is job %d, want %d", i+1, k, e.Job, first+k)
			}
		}
		if l.Dropped() != first {
			t.Fatalf("after %d adds Dropped = %d, want %d", i+1, l.Dropped(), first)
		}
	}
}

// BenchmarkAddFull is one Add into a full log at s3cluster -tracejson's
// capacity: the cost of every event once the ring has wrapped.
func BenchmarkAddFull(b *testing.B) {
	l := MustNew(1 << 16)
	for i := 0; i < 1<<16; i++ {
		l.Add(Event{Job: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(Event{Job: i})
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Event{})
	l.Addf(0, JobCompleted, 1, 2, "x=%d", 1)
	if l.Events() != nil || l.Dropped() != 0 || len(l.OfKind(JobCompleted)) != 0 {
		t.Fatal("nil log should be inert")
	}
}

func TestAddf(t *testing.T) {
	l := MustNew(4)
	l.Addf(5, SubJobAligned, 2, 1, "batch=%d", 3)
	ev := l.Events()
	if len(ev) != 1 || ev[0].Detail != "batch=3" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestOfKind(t *testing.T) {
	l := MustNew(10)
	l.Addf(0, JobSubmitted, 0, -1, "")
	l.Addf(1, RoundLaunched, -1, 0, "")
	l.Addf(2, JobSubmitted, 1, -1, "")
	got := l.OfKind(JobSubmitted)
	if len(got) != 2 || got[0].Job != 0 || got[1].Job != 1 {
		t.Fatalf("OfKind = %+v", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, Kind: RoundLaunched, Job: 2, Segment: 4, Detail: "n=3"}
	s := e.String()
	for _, want := range []string{"1.500s", "round-launched", "job=2", "seg=4", "n=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q missing %q", s, want)
		}
	}
	// Negative job/segment are omitted.
	s2 := Event{At: 0, Kind: JobCompleted, Job: -1, Segment: -1}.String()
	if strings.Contains(s2, "job=") || strings.Contains(s2, "seg=") {
		t.Fatalf("Event.String() = %q should omit job/seg", s2)
	}
}

func TestLogString(t *testing.T) {
	l := MustNew(4)
	l.Addf(0, JobSubmitted, 0, -1, "")
	l.Addf(1, JobCompleted, 0, -1, "")
	s := l.String()
	if lines := strings.Count(s, "\n"); lines != 2 {
		t.Fatalf("String() has %d lines, want 2:\n%s", lines, s)
	}
}

func TestKindString(t *testing.T) {
	if JobSubmitted.String() != "job-submitted" {
		t.Fatalf("Kind.String = %q", JobSubmitted.String())
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if l, err := New(c); err == nil || l != nil {
			t.Errorf("New(%d) = (%v, %v), want (nil, error)", c, l, err)
		}
	}
	if l, err := New(1); err != nil || l == nil {
		t.Fatalf("New(1) = (%v, %v), want a log", l, err)
	}
}

func TestMustNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestConcurrentAdd(t *testing.T) {
	l := MustNew(1000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Addf(0, JobSubmitted, id, -1, "j=%d", j)
			}
		}(i)
	}
	wg.Wait()
	if got := len(l.Events()); got != 400 {
		t.Fatalf("len(Events) = %d, want 400", got)
	}
}

func TestWriteJSON(t *testing.T) {
	l := MustNew(8)
	l.Addf(1.5, RoundLaunched, 0, 3, "n=2")
	l.Addf(2.0, JobCompleted, 1, -1, "")
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("events = %d, want 2", len(decoded))
	}
	if decoded[0]["kind"] != "round-launched" || decoded[0]["segment"] != float64(4) {
		t.Errorf("event 0 = %v", decoded[0])
	}
	if decoded[0]["job"] != float64(1) {
		t.Errorf("job id not shifted: %v", decoded[0])
	}
	if _, has := decoded[1]["segment"]; has {
		t.Errorf("absent segment should be omitted: %v", decoded[1])
	}
	// Nil log writes an empty array.
	var nilLog *Log
	buf.Reset()
	if err := nilLog.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" && s != "null" {
		t.Errorf("nil log JSON = %q", s)
	}
}
