package remote

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/trace"
	"s3sched/internal/workload"
)

// wedgedWorker is a task server that answers the Worker surface but
// never returns from exec calls until released — a deadlocked worker,
// as seen from the master.
type wedgedWorker struct{ release chan struct{} }

func (w *wedgedWorker) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	<-w.release
	return fmt.Errorf("wedged worker released without work")
}

func (w *wedgedWorker) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	<-w.release
	return fmt.Errorf("wedged worker released without work")
}

func (w *wedgedWorker) FetchShuffle(args *FetchArgs, reply *FetchReply) error {
	<-w.release
	return fmt.Errorf("wedged worker released without work")
}

func (w *wedgedWorker) Stats(args *StatsArgs, reply *StatsReply) error { return nil }

func (w *wedgedWorker) FetchResult(*FetchArgs, *[]byte) error { return nil }

func (w *wedgedWorker) InstallFile(*InstallFileArgs, *InstallFileReply) error { return nil }

// slowWorker delegates to a real worker after a fixed delay — slow but
// healthy, the case the watchdog must NOT kill.
type slowWorker struct {
	inner *Worker
	delay time.Duration
}

func (s *slowWorker) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	time.Sleep(s.delay)
	return s.inner.ExecMap(args, reply)
}

func (s *slowWorker) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	time.Sleep(s.delay)
	return s.inner.ExecReduce(args, reply)
}

func (s *slowWorker) FetchShuffle(args *FetchArgs, reply *FetchReply) error {
	return s.inner.FetchShuffle(args, reply)
}

func (s *slowWorker) Stats(args *StatsArgs, reply *StatsReply) error { return nil }

func (s *slowWorker) FetchResult(args *FetchArgs, frame *[]byte) error {
	return s.inner.FetchResult(args, frame)
}

func (s *slowWorker) InstallFile(args *InstallFileArgs, reply *InstallFileReply) error {
	return s.inner.InstallFile(args, reply)
}

// serveStub serves rcvr (see dropServer) on a loopback task listener,
// returning its address.
func serveStub(t *testing.T, rcvr any) string {
	t.Helper()
	addr, _ := dropServer(t, rcvr)
	return addr
}

func realWorker(t *testing.T) *Worker {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
		t.Fatal(err)
	}
	return NewWorker(store, NewStandardRegistry())
}

// TestTaskDeadlineFailsOver: an exec RPC wedged past the deadline is
// abandoned with a TaskDeadlineError, classified as a transport
// failure, and the task fails over to the next live worker — the round
// completes instead of hanging forever.
func TestTaskDeadlineFailsOver(t *testing.T) {
	wedged := &wedgedWorker{release: make(chan struct{})}
	defer close(wedged.release)
	wedgedAddr := serveStub(t, wedged)

	w := realWorker(t)
	goodAddr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	jobs := wordcountRefs(1)
	// Worker order matters: block 0's home is live[0], the wedged one.
	m, err := Dial([]string{wedgedAddr, goodAddr}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetTaskDeadline(100 * time.Millisecond)
	log := trace.MustNew(256)
	m.SetTrace(log)

	if err := mapOn(m, "corpus", []int{0}, 0, []scheduler.JobID{1}, []JobRef{jobs[1]}); err != nil {
		t.Fatalf("map did not fail over past the wedged worker: %v", err)
	}
	if st := w.wireStats(); st.StashEntries != 1 || st.MapTasks != 1 {
		t.Fatalf("the healthy worker's ledger is %+v, want the one task's output stashed there", st)
	}
	if got := failovers(m); got < 1 {
		t.Errorf("failovers = %d, want >= 1", got)
	}
	if evs := log.OfKind(trace.TaskDeadlineExceeded); len(evs) == 0 {
		t.Error("no task-deadline-exceeded trace event recorded")
	}
}

// TestTaskDeadlineSparesSlowWorkers: a slow-but-finishing RPC inside
// the deadline completes normally — no failover, no deadline events.
func TestTaskDeadlineSparesSlowWorkers(t *testing.T) {
	w := realWorker(t)
	defer w.Close()
	slowAddr := serveStub(t, &slowWorker{inner: w, delay: 50 * time.Millisecond})

	jobs := wordcountRefs(1)
	m, err := Dial([]string{slowAddr}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetTaskDeadline(5 * time.Second)
	log := trace.MustNew(256)
	m.SetTrace(log)

	if err := mapOn(m, "corpus", []int{0}, 0, []scheduler.JobID{1}, []JobRef{jobs[1]}); err != nil {
		t.Fatalf("slow worker failed: %v", err)
	}
	if got := failovers(m); got != 0 {
		t.Errorf("failovers = %d, want 0", got)
	}
	if evs := log.OfKind(trace.TaskDeadlineExceeded); len(evs) != 0 {
		t.Errorf("%d task-deadline-exceeded events for a healthy worker", len(evs))
	}
}

// mapOn sends one map task the way ExecRound does, on a membership
// snapshot of its own.
func mapOn(m *Master, file string, blocks []int, home int, ids []scheduler.JobID, refs []JobRef) error {
	ver, live := m.members.live()
	_, err := m.mapWithFailover(ver, live, "", file, blocks, home, ids, refs, nil)
	return err
}

// driveRounds advances the scheduler/master pair n rounds (-1 = until
// the workload drains), returning the completed job ids.
func driveRounds(t *testing.T, s scheduler.Scheduler, m *Master, n int) []scheduler.JobID {
	t.Helper()
	var done []scheduler.JobID
	for i := 0; n < 0 || i < n; i++ {
		r, ok := s.NextRound(0)
		if !ok {
			if n < 0 {
				return done
			}
			t.Fatalf("scheduler idle at round %d", i)
		}
		if _, err := m.ExecRound(r); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		done = append(done, s.RoundDone(r, 0)...)
	}
	return done
}

// mustReplayFile re-opens and replays a journal file.
func mustReplayFile(t *testing.T, path string) ([]journal.Entry, error) {
	t.Helper()
	j, rep, err := journal.Open(path, journal.Options{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	if rep.Corruption != nil {
		return nil, rep.Corruption
	}
	return rep.Entries, nil
}

// TestRestoreResultServesOutput: a terminal job restored from a record
// that carries its output — an older journal's, a DAG producer's — serves
// it through JobOutput without any execution and without a worker.
func TestRestoreResultServesOutput(t *testing.T) {
	m := NewMaster(nil)
	out := []mapreduce.KV{{Key: "k", Value: "3"}}
	m.RestoreResult(journal.JobResultRecord{Job: 9, Output: out})
	got, err := m.JobOutput(9)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(out) {
		t.Fatalf("JobOutput = %v, %v", got, err)
	}
	if _, err := m.JobOutput(10); !errors.Is(err, status.ErrNoOutput) {
		t.Fatalf("unknown job: %v, want ErrNoOutput", err)
	}
	// Receipts, and nobody alive to ask or to recompute: an outage, to be
	// retried, not a job without output.
	m.RestoreResult(journal.JobResultRecord{Job: 11, File: "corpus", Parts: []journal.ResultPart{{Records: 1, Bytes: 5, Holder: "w0"}}})
	if _, err := m.JobOutput(11); !errors.Is(err, status.ErrOutputUnavailable) {
		t.Fatalf("receipts without workers: %v, want ErrOutputUnavailable", err)
	}
}
