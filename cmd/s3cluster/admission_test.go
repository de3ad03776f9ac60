// Admission on the daemon, in-process: a job a worker would refuse is
// refused at POST /jobs with nothing journaled, because a job's own
// error fails the whole run; and a journal holding such an admission,
// written by a binary that let it through, boots with the job failed.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/pipeline"
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
	src := runtime.NewLiveSource()
	dag := pipeline.NewLiveDAG(src, func(scheduler.JobID, vclock.Time) (vclock.Duration, error) { return 0, nil })
	adm := newClusterAdmission(src, dag, master)
	adm.journal = jnl
	return adm, src
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
	} {
		if id, err := adm.SubmitJob(req); err == nil {
			t.Errorf("SubmitJob(%+v) admitted job %d, want an error", req, id)
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
// quantity and a topk over a selection — what a binary that admitted them
// wrote before it died on the first — recovers with both failed, and the
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
	} {
		rec.Name = fmt.Sprintf("%s-%s", rec.Factory, rec.Param)
		rec.NumReduce = 2
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
	rep, err := recoverFromJournal(jnl, st, sched, adm.master, adm.dag, adm, remat, &opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	want := map[scheduler.JobID]runtime.JobState{
		1: runtime.JobQueued, 2: runtime.JobFailed, 3: runtime.JobQueued,
		4: runtime.JobFailed, 5: runtime.JobWaiting,
	}
	for id, state := range want {
		if got, ok := src.Status(id); !ok || got.State != state {
			t.Errorf("job %d is %q after recovery, want %q", id, got.State, state)
		}
	}
	if rep.restarted != 3 {
		t.Errorf("%d jobs restarted, want 3", rep.restarted)
	}
}
