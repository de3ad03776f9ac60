package remote

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// TestMasterFoldsEveryCacheCounter warms a cursor-policy cache on one
// worker — pins, hits, prefetches and all, every one of them caused by a
// map task the master sent — and checks the master's summed view over
// the Stats RPC reproduces the store's own counters field for field. A
// counter added to dfs.CacheStats but dropped on the wire or in the
// master's fold shows up here as a mismatch.
func TestMasterFoldsEveryCacheCounter(t *testing.T) {
	store := dfs.MustStore(1, 1)
	f, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.EnableCachePolicy(int64(testBlocks*testBlockSize*2), dfs.PolicyCursor); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(store, NewStandardRegistry())
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m, err := Dial([]string{addr}, wordcountRefs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Cold scan of the first half, then a hint that pins both halves and
	// prefetches the second, riding the warm rescan of the first: every
	// counter — hits, misses, pins (the unread second half), prefetches,
	// footprint — goes nonzero.
	blocks := f.Blocks()
	half := blocks[:len(blocks)/2]
	scan := scheduler.Round{Blocks: half, Jobs: []scheduler.JobMeta{{ID: 1, File: f.Name}}}
	if _, err := m.ExecRound(scan); err != nil {
		t.Fatal(err)
	}
	m.HandleScanHint(dfs.ScanHint{
		File:     f.Name,
		Pin:      [][]dfs.BlockID{half, blocks[len(blocks)/2:]},
		Prefetch: blocks[len(blocks)/2:],
	})
	if _, err := m.ExecRound(scan); err != nil {
		t.Fatal(err)
	}

	// Prefetch loads land from goroutines; poll until the master's
	// folded view matches the store and shows the expected activity.
	var got, want dfs.CacheStats
	deadline := time.Now().Add(5 * time.Second)
	for {
		want = store.CacheStats()
		got = m.CacheStats()
		settled := got == want && got.Hits > 0 && got.Prefetches > 0 && got.PinnedBytes > 0
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got != want {
		t.Fatalf("master fold diverged from store:\nmaster %+v\nstore  %+v", got, want)
	}
	if got.Hits == 0 || got.Misses == 0 || got.Prefetches == 0 || got.PinnedBytes == 0 || got.Bytes == 0 {
		t.Fatalf("warmup left counters cold: %+v", got)
	}
}

// TestWireStatsMirrorsStatsReply pins the heartbeat ledger to the Stats
// RPC: StatsReply is the reporting worker's name plus comms.WireStats
// itself, embedded, so a counter added to the heartbeat is polled too
// and the two wire formats cannot drift apart.
func TestWireStatsMirrorsStatsReply(t *testing.T) {
	reply := reflect.TypeOf(StatsReply{})
	if f, ok := reply.FieldByName("WireStats"); !ok || !f.Anonymous || f.Type != reflect.TypeOf(comms.WireStats{}) || reply.NumField() != 2 {
		t.Errorf("StatsReply must be Worker plus an embedded comms.WireStats, is %v", reply)
	}
	// And every cache counter the store reports must cross the RPC at
	// all: one StatsReply field per dfs-level cache stat.
	cache := reflect.TypeOf(dfs.CacheStats{})
	for i := 0; i < cache.NumField(); i++ {
		name := "Cache" + cache.Field(i).Name
		if _, ok := reply.FieldByName(name); !ok {
			t.Errorf("dfs.CacheStats.%s has no StatsReply.%s field", cache.Field(i).Name, name)
		}
	}
}

// statsWedgedWorker is a real worker whose Stats never returns until
// released: connected, serving tasks, and wedged where a scrape lands.
type statsWedgedWorker struct {
	*Worker
	release chan struct{}
}

func (w *statsWedgedWorker) Stats(*StatsArgs, *StatsReply) error {
	<-w.release
	return nil
}

// With a task deadline set, a worker that never answers Stats costs a
// scrape one deadline: WorkerStats reports the *TaskDeadlineError, and
// the best-effort folds skip that worker and still count the other.
func TestStatsPollsHonourTaskDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := wireCluster(t, 2, nil, func(w *Worker) any {
		return &statsWedgedWorker{w, release}
	})
	m.SetTaskDeadline(50 * time.Millisecond)

	// Give the healthy worker (live[1]) something to report.
	_, live := m.members.live()
	var reply MapTaskReply
	args := &MapTaskArgs{File: "text", Blocks: []int{1}, IDs: []scheduler.JobID{1}, Jobs: []JobRef{{Name: "wc", Factory: "wordcount", Param: "t"}}}
	if err := m.callWorker(live[1], execMap, args, &reply); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := m.WorkerStats()
		var deadline *TaskDeadlineError
		if !errors.As(err, &deadline) || deadline.Method != "Worker.Stats" {
			t.Errorf("WorkerStats error = %v, want a *TaskDeadlineError for Worker.Stats", err)
		}
		if fs := m.FaultStats(); fs.FailedAttempts != 0 || fs.Retries != 0 {
			t.Errorf("FaultStats = %+v", fs)
		}
		if stats, _ := m.pollStats(false); len(stats) != 1 || stats[0].BlockReads != 1 || stats[0].Worker != live[1].id {
			t.Errorf("best-effort poll = %+v, want the healthy worker's one block read", stats)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stats polls still blocked on the wedged worker after 10s with a 50ms task deadline")
	}
}
