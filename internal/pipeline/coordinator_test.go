package pipeline

import (
	"fmt"
	"testing"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

func meta(id scheduler.JobID, file string) scheduler.JobMeta {
	return scheduler.JobMeta{ID: id, Name: fmt.Sprintf("job-%d", id), File: file}
}

// countingMat records materialization calls and returns a fixed delay.
type countingMat struct {
	calls map[scheduler.JobID]int
	at    map[scheduler.JobID]vclock.Time
	delay vclock.Duration
	fail  map[scheduler.JobID]bool
}

func newCountingMat(delay vclock.Duration) *countingMat {
	return &countingMat{
		calls: make(map[scheduler.JobID]int),
		at:    make(map[scheduler.JobID]vclock.Time),
		delay: delay,
		fail:  make(map[scheduler.JobID]bool),
	}
}

func (m *countingMat) mat(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
	m.calls[id]++
	m.at[id] = at
	if m.fail[id] {
		return 0, fmt.Errorf("injected materialization failure for %d", id)
	}
	return m.delay, nil
}

func TestCoordinatorValidation(t *testing.T) {
	cases := []struct {
		name   string
		stages []Stage
		mat    Materializer
		want   string
	}{
		{"non-positive id", []Stage{{Job: meta(0, "f")}}, nil, "non-positive id"},
		{"duplicate id", []Stage{{Job: meta(1, "f")}, {Job: meta(1, "f")}}, nil, "duplicate stage id"},
		{"unknown dep", []Stage{{Job: meta(1, "f"), DependsOn: []scheduler.JobID{9}}},
			func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil },
			"stage 1 depends on unknown job 9"},
		{"missing materializer", []Stage{{Job: meta(1, "f")}, {Job: meta(2, "g"), DependsOn: []scheduler.JobID{1}}}, nil, "no materializer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCoordinator(tc.stages, tc.mat)
			if err == nil {
				t.Fatalf("NewCoordinator accepted %+v", tc.stages)
			}
			if got := err.Error(); !contains(got, tc.want) {
				t.Fatalf("error %q does not mention %q", got, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCoordinatorReleasesAfterMaterialization(t *testing.T) {
	m := newCountingMat(vclock.Duration(2))
	c, err := NewCoordinator([]Stage{
		{Job: meta(1, "corpus"), At: 0},
		{Job: meta(2, "job-1.out"), At: 1, DependsOn: []scheduler.JobID{1}},
	}, m.mat)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (the root: a held stage is not queued)", got)
	}
	roots := c.Pop(0)
	if len(roots) != 1 || roots[0].Job.ID != 1 {
		t.Fatalf("Pop(0) = %+v, want root job 1", roots)
	}
	if _, ok := c.Peek(); ok {
		t.Fatal("Peek reports an arrival while the consumer is held")
	}
	if c.Wait() {
		t.Fatal("Wait() = true with nothing queued")
	}
	c.JobFinished(1, vclock.Time(5))
	if m.calls[1] != 1 {
		t.Fatalf("materializer called %d times for job 1, want 1", m.calls[1])
	}
	at, ok := c.Peek()
	if !ok || at != vclock.Time(7) {
		t.Fatalf("Peek() = %v, %v; want release at finish+delay = 7", at, ok)
	}
	if got := c.Pop(vclock.Time(6)); len(got) != 0 {
		t.Fatalf("Pop(6) delivered %+v before the materialization settled", got)
	}
	got := c.Pop(vclock.Time(7))
	if len(got) != 1 || got[0].Job.ID != 2 || got[0].At != vclock.Time(7) {
		t.Fatalf("Pop(7) = %+v, want job 2 at 7", got)
	}
	// Duplicate finish notifications must not re-materialize.
	c.JobFinished(1, vclock.Time(9))
	if m.calls[1] != 1 {
		t.Fatalf("duplicate JobFinished re-ran the materializer (%d calls)", m.calls[1])
	}
	if len(c.Failed()) != 0 || c.Err() != nil {
		t.Fatalf("clean DAG left residue: failed %v err %v", c.Failed(), c.Err())
	}
}

func TestCoordinatorDiamondWaitsForAllDeps(t *testing.T) {
	m := newCountingMat(0)
	c, err := NewCoordinator([]Stage{
		{Job: meta(1, "corpus")},
		{Job: meta(2, "corpus")},
		{Job: meta(3, "job-1.out"), DependsOn: []scheduler.JobID{1, 2}},
	}, m.mat)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Pop(0)
	c.JobFinished(1, vclock.Time(3))
	if got := c.Pop(vclock.Time(10)); len(got) != 0 {
		t.Fatalf("consumer released after one of two deps: %+v", got)
	}
	c.JobFinished(2, vclock.Time(4))
	got := c.Pop(vclock.Time(10))
	if len(got) != 1 || got[0].Job.ID != 3 || got[0].At != vclock.Time(4) {
		t.Fatalf("Pop = %+v, want job 3 at 4 (last dep's finish)", got)
	}
	if m.calls[1] != 1 || m.calls[2] != 1 {
		t.Fatalf("materializer calls = %v, want one per producer", m.calls)
	}
}

// A producer whose output cannot become a file takes its whole cone
// with it, transitively, and none of it is materialized or delivered.
func TestCoordinatorMaterializeErrorCascades(t *testing.T) {
	m := newCountingMat(0)
	m.fail[1] = true
	c, err := NewCoordinator([]Stage{
		{Job: meta(1, "corpus")},
		{Job: meta(2, "job-1.out"), DependsOn: []scheduler.JobID{1}},
		{Job: meta(3, "job-2.out"), DependsOn: []scheduler.JobID{2}},
	}, m.mat)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Pop(0)
	c.JobFinished(1, vclock.Time(2))
	if c.Err() == nil || !contains(c.Err().Error(), "materializing stage 1") {
		t.Fatalf("Err() = %v, want materialization failure", c.Err())
	}
	if got := c.Failed(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Failed() = %v, want [2 3]", got)
	}
	if m.calls[2] != 0 || c.Wait() {
		t.Fatalf("the cone ran on: %d materializations of stage 2, queued %v", m.calls[2], c.Wait())
	}
}

func TestCoordinatorUnfinished(t *testing.T) {
	m := newCountingMat(0)
	c, err := NewCoordinator([]Stage{
		{Job: meta(1, "corpus")},
		{Job: meta(2, "job-1.out"), DependsOn: []scheduler.JobID{1}},
	}, m.mat)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Pop(0)
	// The producer never finishes (abnormal run): the consumer stays
	// held and is reported.
	if err := c.Err(); err == nil || !contains(err.Error(), "1 DAG stages never became ready") {
		t.Fatalf("Err() = %v, want the held stage reported", err)
	}
}
