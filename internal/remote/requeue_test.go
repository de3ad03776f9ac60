package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
)

// reduceCutter is a real worker that, once armed with a job's name,
// answers that job's next reduce task by cutting the master off — after
// waiting for whatever the test wants committed first.
type reduceCutter struct {
	*Worker
	mu     sync.Mutex
	victim string
	before func()
	drop   func()
}

func (c *reduceCutter) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	c.mu.Lock()
	cut := c.victim != "" && args.Job.Name == c.victim
	if cut {
		c.victim = ""
	}
	c.mu.Unlock()
	if !cut {
		return c.Worker.ExecReduce(args, reply)
	}
	c.before()
	c.drop()
	return errors.New("cut off")
}

// Two jobs finish in one round; the first commits its result, the
// second loses its reduce to an outage, and the round is requeued. The
// second attempt must leave the first job alone — not reduce it again
// from the round's one segment, not journal a second result — and
// finish the second from everything it mapped.
func TestRequeuedRoundKeepsFinishedJobs(t *testing.T) {
	const jobs = 2
	refs := wordcountRefs(jobs)
	m := NewMaster(refs)
	ctl, err := m.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _, err := journal.Open(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m.SetJournal(jnl)

	cutter := &reduceCutter{Worker: NewWorker(hintStore(t, ""), NewStandardRegistry())}
	defer cutter.Close()
	cutter.before = func() { // on the RPC server's goroutine: no t.Fatal here
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if committed(m) > 0 {
				return
			}
		}
		t.Error("the first job never committed")
	}
	join, drop := dropJoin(t, m, ctl, cutter.Worker, cutter)
	cutter.drop = drop
	join(1)

	together := []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "corpus"}, At: 0},
	}
	attempts := 0
	exec := unitRounds{Master: m, before: func(r scheduler.Round) error {
		if len(r.Completes) == 0 {
			return nil
		}
		if attempts++; attempts > 1 {
			return nil
		}
		cutter.mu.Lock()
		cutter.victim = refs[2].Name
		cutter.mu.Unlock()
		_, err := m.ExecRound(r)
		cutter.Close()
		join(2)
		return err
	}}
	res, err := runtime.RunTrace(hintedS3(t, m), exec, together, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fs := res.Faults; fs.RequeuedRounds != 1 || attempts != 2 {
		t.Fatalf("%d requeued rounds over %d attempts at the last round, want 1 over 2", fs.RequeuedRounds, attempts)
	}

	plain, err := Dial([]string{serveStub(t, NewWorker(hintStore(t, ""), NewStandardRegistry()))}, refs)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := runtime.RunTrace(hintedS3(t, plain), unitRounds{Master: plain}, together, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	got, want := outputsOf(m), outputsOf(plain)
	for id := scheduler.JobID(1); id <= jobs; id++ {
		if got[id] == "" || got[id] != want[id] {
			t.Errorf("job %d: %d bytes of output, the undisturbed run has %d", id, len(got[id]), len(want[id]))
		}
	}

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := mustReplayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[scheduler.JobID]int)
	for _, e := range entries {
		if e.Kind == journal.KindJobResult {
			var rec journal.JobResultRecord
			if err := json.Unmarshal(e.Data, &rec); err != nil {
				t.Fatal(err)
			}
			results[rec.Job]++
		}
	}
	if !reflect.DeepEqual(results, map[scheduler.JobID]int{1: 1, 2: 1}) {
		t.Errorf("job-result records per job = %v, want one each", results)
	}
}

// finishStub maps like a real worker; its reduce tasks fail at once
// with an error of the job's own for one job and wedge for every other.
type finishStub struct {
	*Worker
	bad     string
	release chan struct{}
}

func (s *finishStub) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	if args.Job.Name == s.bad {
		return errors.New("reducer exploded")
	}
	<-s.release
	return errors.New("released without work")
}

// Three jobs finish in one round and reduce side by side: the first and
// last meet an outage (every reduce task runs into the deadline), the
// middle one's reducer fails. The round reports the job's own error —
// an outage must not mask it, or the round would be requeued for ever —
// whichever comes in first.
func TestConcurrentFinishReportsTheJobOwnedError(t *testing.T) {
	refs := wordcountRefs(3)
	stub := &finishStub{Worker: realWorker(t), bad: refs[2].Name, release: make(chan struct{})}
	defer stub.Close()
	defer close(stub.release)
	m, err := Dial([]string{serveStub(t, stub)}, refs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetTaskDeadline(100 * time.Millisecond)

	r := scheduler.Round{Completes: []scheduler.JobID{1, 2, 3}}
	for i := 0; i < testBlocks; i++ {
		r.Blocks = append(r.Blocks, dfs.BlockID{File: "corpus", Index: i})
	}
	for _, id := range r.Completes {
		r.Jobs = append(r.Jobs, scheduler.JobMeta{ID: id, File: "corpus"})
	}
	_, err = m.ExecRound(r)
	var outage *allWorkersError
	if err == nil || errors.As(err, &outage) || !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("ExecRound error = %v, want the middle job's own", err)
	}
	if committed(m) != 0 {
		t.Errorf("%d jobs committed, want none", committed(m))
	}

	// The rule itself, in both orders of arrival.
	own, lost := errors.New("reducer exploded"), &allWorkersError{what: "job", err: fmt.Errorf("no live workers")}
	for _, order := range [][]error{{own, lost}, {lost, own}, {lost, own, lost}} {
		var errs taskErrs
		for _, err := range order {
			errs.add(err)
		}
		if errs.err != own {
			t.Errorf("taskErrs after %v reports %v, want the job's own", order, errs.err)
		}
	}
}
