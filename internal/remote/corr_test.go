package remote

import (
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/workload"
)

// corrIDs extracts the correlation ids from a log's events of kind k.
func corrIDs(t *testing.T, log *trace.Log, k trace.Kind) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, ev := range log.OfKind(k) {
		if !strings.HasPrefix(ev.Detail, "corr=") {
			t.Fatalf("%v event without corr prefix: %q", k, ev.Detail)
		}
		id := strings.Fields(strings.TrimPrefix(ev.Detail, "corr="))[0]
		out[id]++
	}
	return out
}

// TestMasterWorkerCorrelation runs a distributed workload with tracing
// on both sides and checks that every task the master dispatched was
// served under the same correlation id — the join key that stitches a
// master's trace to its workers'.
func TestMasterWorkerCorrelation(t *testing.T) {
	jobs := wordcountRefs(2)
	reg := NewStandardRegistry()
	var addrs []string
	workerLogs := make([]*trace.Log, 2)
	var workers []*Worker
	for i := range workerLogs {
		store := dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
			t.Fatal(err)
		}
		w := NewWorker(store, reg)
		workerLogs[i] = trace.MustNew(256)
		w.SetTrace(workerLogs[i])
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	master, err := Dial(addrs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		master.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	masterLog := trace.MustNew(256)
	master.SetTrace(masterLog)
	master.SetTimeScale(1e6)

	plan := testPlan(t)
	s3 := core.New(plan, nil)
	if _, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "corpus"}, At: 1},
	}, runtime.Options{}); err != nil {
		t.Fatal(err)
	}

	dispatched := corrIDs(t, masterLog, trace.TaskDispatched)
	served := map[string]int{}
	for _, wl := range workerLogs {
		for id, n := range corrIDs(t, wl, trace.TaskServed) {
			served[id] += n
		}
	}
	if len(dispatched) == 0 {
		t.Fatal("master dispatched no traced tasks")
	}
	// Healthy cluster: every dispatch succeeds on its first worker, so
	// the two id sets match exactly, each id appearing once per side.
	if len(served) != len(dispatched) {
		t.Fatalf("served %d distinct corr ids, dispatched %d", len(served), len(dispatched))
	}
	for id, n := range dispatched {
		if n != 1 {
			t.Errorf("corr %s dispatched %d times, want 1", id, n)
		}
		if served[id] != 1 {
			t.Errorf("corr %s served %d times, want 1", id, served[id])
		}
	}
	// Both phases are represented: map ids r<round>.m<block> and
	// reduce ids j<job>.p<part>.
	var maps, reduces int
	for id := range dispatched {
		switch {
		case strings.HasPrefix(id, "r"):
			maps++
		case strings.HasPrefix(id, "j"):
			reduces++
		default:
			t.Errorf("unrecognized corr id %q", id)
		}
	}
	if maps == 0 || reduces == 0 {
		t.Errorf("corr ids cover maps=%d reduces=%d, want both > 0", maps, reduces)
	}
}
