package remote

import (
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
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

// TestMasterWorkerCorrelation runs a distributed workload with the
// master traced and checks its side of the join: every call it
// dispatched carries one correlation id of its own, maps and reduces
// both appear, and the calls counted are the tasks the workers served.
// The master knows which call each reply answers, so no worker needs
// to echo the id.
func TestMasterWorkerCorrelation(t *testing.T) {
	logs := make([]*taskLog, 2)
	workers, addrs := serveWorkers(t, 2, recordInto(logs, 0, 1))
	master := dialT(t, addrs, wordcountRefs(2))
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
	if len(dispatched) == 0 {
		t.Fatal("master dispatched no traced tasks")
	}
	// Healthy cluster: every dispatch succeeds on its first worker, so
	// each id names one call.
	var maps, reduces int
	for id, n := range dispatched {
		if n != 1 {
			t.Errorf("corr %s dispatched %d times, want 1", id, n)
		}
		// Map ids r<round>.m<block>, reduce ids j<job>.p<part>.
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
	var servedMaps, servedReduces int
	for i, w := range workers {
		servedMaps += len(logs[i].served())
		servedReduces += int(w.wireStats().ReduceTasks)
	}
	if servedMaps != maps || servedReduces != reduces {
		t.Errorf("workers served %d maps and %d reduces, the master traced %d and %d", servedMaps, servedReduces, maps, reduces)
	}
}
