// Admission on the daemon, in-process: a job a worker would refuse is
// refused at POST /jobs with nothing journaled, because a job's own
// error fails the whole run; and a journal holding such an admission,
// written by a binary that let it through, boots with the job failed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// testAdmission is drive()'s admission stack over a master with no
// workers, journaling to jnl.
func testAdmission(t *testing.T, jnl *journal.Journal) (*clusterAdmission, *runtime.LiveSource) {
	t.Helper()
	master := remote.NewMaster(nil)
	t.Cleanup(func() { master.Close() })
	src := runtime.NewLiveSourceOn(nil, func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil })
	return &clusterAdmission{src: src, master: master, journal: jnl}, src
}

func openJournal(t *testing.T, path string) (*journal.Journal, *journal.Replayed) {
	t.Helper()
	jnl, replayed, err := journal.Open(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl, replayed
}

func TestSubmitJobRefusesWhatWorkersRefuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _ := openJournal(t, path)
	adm, src := testAdmission(t, jnl)
	wc, err := adm.SubmitJob(status.JobRequest{Factory: "wordcount", Param: "t"})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := adm.SubmitJob(status.JobRequest{Factory: "selection", Param: "10"})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []status.JobRequest{
		{Factory: "selection", Param: "abc"},
		{Factory: "topk", Param: "0", DependsOn: []scheduler.JobID{wc}},
		{Factory: "heavy-wordcount", Param: "x"},
		{Factory: "topk", Param: "3", DependsOn: []scheduler.JobID{sel}},
		{Factory: "topk", Param: "3"},
		{Factory: "grep", Param: "t"},
		{Factory: "aggregation", DependsOn: []scheduler.JobID{wc}},
		{Factory: "wordcount", Param: "t", NumReduce: workload.MaxNumReduce + 1},
		{Factory: "wordcount", Param: "t", NumReduce: -1},
		{Factory: "wordcount", Param: "t", Weight: -1},
	} {
		id, err := adm.SubmitJob(req)
		var rangeErr *workload.RangeError
		switch {
		case err == nil:
			t.Errorf("SubmitJob(%+v) admitted job %d, want an error", req, id)
		case (req.NumReduce != 0 || req.Weight != 0) && !errors.As(err, &rangeErr):
			t.Errorf("SubmitJob(%+v): %v, want a *workload.RangeError", req, err)
		}
	}
	if _, err := adm.SubmitJob(status.JobRequest{Factory: "topk", Param: "3", DependsOn: []scheduler.JobID{wc}}); err != nil {
		t.Errorf("topk over a word count: %v", err)
	}
	if n := len(src.Jobs()); n != 3 {
		t.Errorf("the source holds %d jobs, want the 3 admitted", n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"kind":"job-admitted"`)); n != 3 {
		t.Errorf("%d job-admitted records, want 3: a refused job was journaled", n)
	}
}

// A journal whose admissions include a selection with a non-integer
// quantity, a topk over a selection, an aggregation over a word count's
// output and a reduce count past the bound — what a binary that admitted
// them wrote before it died on one — recovers with those failed, and the
// rest resubmitted.
func TestRecoveryFailsJobsThisBinaryRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	old, _ := openJournal(t, path)
	for _, rec := range []journal.JobAdmittedRecord{
		{ID: 1, Factory: "wordcount", Param: "t", Meta: scheduler.JobMeta{File: "corpus"}},
		{ID: 2, Factory: "selection", Param: "abc", Meta: scheduler.JobMeta{File: "lineitem"}},
		{ID: 3, Factory: "selection", Param: "10", Meta: scheduler.JobMeta{File: "lineitem"}},
		{ID: 4, Factory: "topk", Param: "3", Meta: scheduler.JobMeta{File: workload.DerivedFileName(3)}, DependsOn: []scheduler.JobID{3}},
		{ID: 5, Factory: "topk", Param: "3", Meta: scheduler.JobMeta{File: workload.DerivedFileName(1)}, DependsOn: []scheduler.JobID{1}},
		{ID: 6, Factory: "aggregation", Meta: scheduler.JobMeta{File: workload.DerivedFileName(1)}, DependsOn: []scheduler.JobID{1}},
		{ID: 7, Factory: "wordcount", Param: "t", NumReduce: 1 << 30, Meta: scheduler.JobMeta{File: "corpus"}},
	} {
		rec.Name = fmt.Sprintf("%s-%s", rec.Factory, rec.Param)
		rec.NumReduce = max(rec.NumReduce, 2)
		rec.Meta.ID, rec.Meta.Name = rec.ID, rec.Name
		if err := old.AppendRecord(journal.KindJobAdmitted, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	jnl, replayed := openJournal(t, path)
	st, err := journal.ReduceEntries(replayed.Entries)
	if err != nil {
		t.Fatal(err)
	}
	store := dfs.MustStore(1, 1)
	var plans []*dfs.SegmentPlan
	for _, name := range []string{"corpus", "lineitem"} {
		f, err := store.AddMetaFile(name, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, 2)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	sched, err := core.NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm, src := testAdmission(t, jnl)
	remat := func(id scheduler.JobID) error { return fmt.Errorf("job %d: nothing here is materialized", id) }
	var opts runtime.Options
	rep, err := recoverFromJournal(jnl, st, sched, adm.master, adm, remat, &opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	want := map[scheduler.JobID]runtime.JobState{
		1: runtime.JobQueued, 2: runtime.JobFailed, 3: runtime.JobQueued,
		4: runtime.JobFailed, 5: runtime.JobWaiting, 6: runtime.JobFailed, 7: runtime.JobFailed,
	}
	for id, state := range want {
		if got, ok := src.Status(id); !ok || got.State != state {
			t.Errorf("job %d is %q after recovery, want %q", id, got.State, state)
		}
	}
	if rep.restarted != 3 || rep.refused != 4 {
		t.Errorf("%d jobs restarted and %d refused, want 3 and 4", rep.restarted, rep.refused)
	}
}

// The workload-file validator and POST /jobs admit a job through one
// rule, so they agree on every catalog factory as a root job and as a
// stage over each root factory's output: the root reads the daemon file
// SubmitJob routes it to, the stage its producer's derived output.
func TestFrontEndsAgree(t *testing.T) {
	jobs := map[string]workload.FileJob{
		workload.FactoryWordCount:      {Param: "t"},
		workload.FactoryHeavyWordCount: {Param: "t", EmitFactor: 2},
		workload.FactorySelection:      {Param: "10"},
		workload.FactoryAggregation:    {},
		workload.FactoryTopK:           {Param: "3"},
	}
	// verdicts returns whether the workload validator and SubmitJob each
	// accept the last of chain, every job depending on the one before.
	verdicts := func(chain ...string) (file, daemon error) {
		var wf bytes.Buffer
		wf.WriteString(`{"kind":"workload","version":3,"name":"agree","nodes":1,"slotsPerNode":1,"replicas":1}` + "\n")
		for _, f := range daemonFiles {
			fmt.Fprintf(&wf, `{"kind":"file","name":%q,"content":%q,"blocks":4,"blockBytes":64,"segmentBlocks":2}`+"\n", f.Name, f.Content)
		}
		adm, _ := testAdmission(t, nil)
		var deps []scheduler.JobID
		for i, factory := range chain {
			j, ok := jobs[factory]
			if !ok {
				t.Fatalf("factory %q has no job in this test; add one", factory)
			}
			j.Kind, j.ID, j.Factory, j.File, j.DependsOn = workload.KindJob, scheduler.JobID(i+1), factory, rootFile(factory), deps
			id, err := adm.SubmitJob(status.JobRequest{Factory: factory, Param: j.WireParam(), DependsOn: deps})
			if i < len(chain)-1 && err != nil {
				t.Fatalf("producer %s: %v", factory, err)
			}
			daemon = err
			if len(deps) > 0 {
				j.File = workload.DerivedFileName(deps[0])
			}
			rec, err := json.Marshal(j)
			if err != nil {
				t.Fatal(err)
			}
			wf.Write(append(rec, '\n'))
			deps = []scheduler.JobID{id}
		}
		_, file = workload.ParseFile(&wf)
		return file, daemon
	}
	for consumer := range workload.Catalog {
		chains := [][]string{{consumer}}
		for producer, f := range workload.Catalog {
			if f.Scans(workload.ContentMeta) { // a root job
				chains = append(chains, []string{producer, consumer})
			}
		}
		for _, chain := range chains {
			file, daemon := verdicts(chain...)
			if (file == nil) != (daemon == nil) {
				t.Errorf("%v: workload file says %v, POST /jobs says %v", chain, file, daemon)
			}
		}
	}
}

// FuzzSubmitJob sends arbitrary POST /jobs bodies, one a line, through
// the status server's handler into drive()'s admission stack: nothing
// panics, every answer is 202, 400 or 413, every 202's id reads back
// from GET /jobs/<id> as waiting, queued or failed, and the source holds
// exactly the jobs that got a 202.
func FuzzSubmitJob(f *testing.F) {
	for _, seed := range []string{
		`{"factory":"wordcount","param":"t"}`,
		`{"factory":"wordcount","param":"t"}` + "\n" + `{"factory":"topk","param":"3","dependsOn":[1]}`,
		`{"factory":"wordcount","param":"t"}` + "\n" + `{"factory":"topk","param":"3","dependsOn":[2]}` + "\n" + `{"factory":"topk","param":"3","dependsOn":[1,1]}`,
		`{"factory":"wordcount",`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		adm, src := testAdmission(t, nil)
		srv := status.NewServer("s3")
		srv.SetAdmission(adm)
		h := srv.Handler()
		accepted := 0
		for _, body := range bytes.SplitN(data, []byte("\n"), 8) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				continue
			case http.StatusAccepted:
			default:
				t.Fatalf("POST %q: status %d", body, rec.Code)
			}
			accepted++
			var reply struct{ ID int }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("POST %q: 202 with %q: %v", body, rec.Body, err)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d", reply.ID), nil))
			var st runtime.JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("GET /jobs/%d: %d %q", reply.ID, rec.Code, rec.Body)
			}
			switch st.State {
			case runtime.JobWaiting, runtime.JobQueued, runtime.JobFailed:
			default:
				t.Fatalf("job %d accepted as %q", reply.ID, st.State)
			}
		}
		if n := len(src.Jobs()); n != accepted {
			t.Fatalf("the source holds %d jobs after %d 202s", n, accepted)
		}
	})
}
