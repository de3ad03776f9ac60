// SIGKILL-mid-DAG crash recovery: a wordcount→top-k pipeline plus an
// unrelated concurrent wordcount survive losing the master while the
// producer is still scanning. The restarted master must re-form the
// half-finished DAG from the journal — the held consumer holds again,
// the producer resumes, its output materializes, and the consumer's
// result is byte-identical to an uninterrupted run.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// postJobDeps submits a job whose input is an earlier job's
// materialized reduce output.
func postJobDeps(t *testing.T, base, factory, param string, deps []int) int {
	t.Helper()
	parts := make([]string, len(deps))
	for i, d := range deps {
		parts[i] = strconv.Itoa(d)
	}
	body := fmt.Sprintf(`{"factory":%q,"param":%q,"dependsOn":[%s]}`,
		factory, param, strings.Join(parts, ","))
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %s: %s", resp.Status, out)
	}
	var reply struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding submit reply: %v", err)
	}
	return reply.ID
}

// jobDetail fetches one job's state and declared dependencies.
func jobDetail(t *testing.T, base string, id int) (state string, dependsOn []int) {
	t.Helper()
	var st struct {
		State     string `json:"state"`
		DependsOn []int  `json:"dependsOn"`
	}
	if err := getJSON(fmt.Sprintf("%s/jobs/%d", base, id), &st); err != nil {
		t.Fatalf("GET /jobs/%d: %v", id, err)
	}
	return st.State, st.DependsOn
}

// submitDAGChain submits the pipeline under test: a wordcount producer,
// a top-3 consumer over its materialized output, and an unrelated
// wordcount that shares the producer's circular pass.
func submitDAGChain(t *testing.T, base string) (producer, consumer, bystander int) {
	t.Helper()
	prefixes := workload.DistinctPrefixes(2)
	producer = postJob(t, base, "wordcount", prefixes[0])
	consumer = postJobDeps(t, base, "topk", "3", []int{producer})
	bystander = postJob(t, base, "wordcount", prefixes[1])
	return producer, consumer, bystander
}

func TestMasterCrashRecoveryDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test")
	}
	dir := t.TempDir()

	// --- incarnation 1: killed while the producer is mid-pass ---------
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(dir, "journal.wal")
	tracePath := filepath.Join(dir, "trace.json")
	base := "http://" + statusAddr

	m1 := spawnMaster(t, "dag-master1", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "dag-worker-a")
	startCrashWorker(t, ctrl, "dag-worker-b")
	waitStatus(t, base, 30*time.Second, "dag-master1 up", func(statusSnapshot) bool { return true })

	producer, consumer, bystander := submitDAGChain(t, base)
	ids := []int{producer, consumer, bystander}

	// The consumer must be admitted held: waiting state, dependency
	// visible through the status API (not yet scanning anything).
	state, deps := jobDetail(t, base, consumer)
	if state != "waiting" {
		t.Fatalf("consumer state = %q, want waiting", state)
	}
	if len(deps) != 1 || deps[0] != producer {
		t.Fatalf("consumer dependsOn = %v, want [%d]", deps, producer)
	}

	// One pass is crashBlocks/2 = 24 rounds; by round 3 the producer is
	// mid-flight and the consumer still held.
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool {
		return st.Rounds >= 3
	})
	if state, _ := jobDetail(t, base, consumer); state != "waiting" {
		t.Fatalf("consumer left waiting state before its producer finished: %q", state)
	}
	if err := m1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL dag-master1: %v", err)
	}
	_ = m1.cmd.Wait() // reap; exit status is meaningless after SIGKILL

	// --- incarnation 2: same journal re-forms the DAG -----------------
	m2 := spawnMaster(t, "dag-master2", ctrl, statusAddr, journalPath, tracePath)
	waitStatus(t, base, 30*time.Second, "dag-master2 recovery", func(st statusSnapshot) bool {
		return st.Recovery != nil
	})
	// The recovered consumer must still carry its dependency edge.
	if _, deps := jobDetail(t, base, consumer); len(deps) != 1 || deps[0] != producer {
		t.Fatalf("recovered consumer dependsOn = %v, want [%d]", deps, producer)
	}
	waitJobsDone(t, base, ids, 120*time.Second)

	st := waitStatus(t, base, 5*time.Second, "recovery visible", func(st statusSnapshot) bool {
		return st.Recovery != nil && st.Recovery.Recoveries >= 1
	})
	if st.Recovery.JobsResumed+st.Recovery.JobsRestarted == 0 {
		t.Errorf("recovery carried no jobs: %+v", st.Recovery)
	}
	got := jobOutputs(t, base, ids)

	// --- reference: uninterrupted run on a fresh journal --------------
	refCtrl, refStatus := pickAddr(t), pickAddr(t)
	refBase := "http://" + refStatus
	ref := spawnMaster(t, "dag-reference", refCtrl, refStatus, filepath.Join(dir, "ref.wal"), "")
	startCrashWorker(t, refCtrl, "dag-ref-worker-a")
	startCrashWorker(t, refCtrl, "dag-ref-worker-b")
	waitStatus(t, refBase, 30*time.Second, "dag-reference up", func(statusSnapshot) bool { return true })
	refProducer, refConsumer, refBystander := submitDAGChain(t, refBase)
	refIDs := []int{refProducer, refConsumer, refBystander}
	waitJobsDone(t, refBase, refIDs, 120*time.Second)
	want := jobOutputs(t, refBase, refIDs)

	for i, id := range ids {
		if !bytes.Equal(got[id], want[refIDs[i]]) {
			t.Errorf("job %d: output diverges from uninterrupted run (%d vs %d bytes)\n got: %s\nwant: %s",
				id, len(got[id]), len(want[refIDs[i]]), got[id], want[refIDs[i]])
		}
	}
	// The consumer's output is the top-k ranking, not raw counts: it
	// must be non-empty and smaller than its producer's full output.
	if len(got[consumer]) == 0 || len(got[consumer]) >= len(got[producer]) {
		t.Errorf("consumer output %dB vs producer %dB: top-k did not rank/truncate",
			len(got[consumer]), len(got[producer]))
	}

	// --- graceful shutdown + trace assertion --------------------------
	if err := ref.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT dag-reference: %v", err)
	}
	_ = ref.wait(t, 30*time.Second)
	if err := m2.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT dag-master2: %v", err)
	}
	if err := m2.wait(t, 30*time.Second); err != nil {
		t.Fatalf("dag-master2 exited uncleanly: %v", err)
	}
	traceOut, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if !bytes.Contains(traceOut, []byte("journal-recovered")) {
		t.Error("exported trace lacks the journal-recovered event")
	}
}

// A DAG producer is the one job whose output the journal keeps: when it
// becomes a derived file, a job-result that carries the records is written
// before stage-materialized, and a master recovering from that journal —
// with no worker registered, nobody to fetch from or to recompute on —
// rebuilds the same file from it.
func TestDAGProducerOutputSurvivesWithoutWorkers(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		store, err := workerStore()
		if err != nil {
			t.Fatal(err)
		}
		w := remote.NewWorker(store, remote.NewStandardRegistry())
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		addrs = append(addrs, addr)
	}
	master, err := remote.Dial(addrs, map[scheduler.JobID]remote.JobRef{1: {Name: "wc", Factory: "wordcount", Param: "t", NumReduce: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _, err := journal.Open(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	master.SetJournal(jnl)
	// planning is drive()'s: a metadata-only corpus and its segment plan.
	planning := func() (*dfs.Store, *core.MultiFile) {
		store := dfs.MustStore(2, 1)
		f, err := store.AddMetaFile("corpus", *blocks, *blockSize)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dfs.PlanSegments(f, 2)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.NewMultiFile([]*dfs.SegmentPlan{plan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return store, sched
	}
	derived := func(store *dfs.Store) (out []byte) {
		f, err := store.File(workload.DerivedFileName(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.NumBlocks; i++ {
			b, err := store.ReadBlock(dfs.BlockID{File: f.Name, Index: i})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}

	twoWide := func(string, int) (int, error) { return 2, nil }
	planStore, sched := planning()
	arrival := []runtime.Arrival{{Job: scheduler.JobMeta{ID: 1, File: "corpus"}}}
	if _, err := runtime.RunTrace(sched, master, arrival, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := materializeStage(master, sched, planStore, jnl, twoWide, 1); err != nil {
		t.Fatal(err)
	}
	want := derived(planStore)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := journal.Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range entries {
		kinds = append(kinds, e.Kind)
	}
	if fmt.Sprint(kinds) != "[job-result job-result stage-materialized]" || bytes.Contains(entries[0].Data, []byte(`"output"`)) || !bytes.Contains(entries[1].Data, []byte(`"output"`)) {
		t.Fatalf("the journal holds %v: want the receipts, then the records, then the materialisation", kinds)
	}
	st, err := journal.ReduceEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	recovered := remote.NewMaster(nil) // and no worker, ever
	defer recovered.Close()
	recovered.RestoreResult(st.Results[1])
	planStore, sched = planning()
	if err := materializeStage(recovered, sched, planStore, nil, twoWide, 1); err != nil {
		t.Fatalf("re-materialising without workers: %v", err)
	}
	if got := derived(planStore); len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("the rebuilt file is %d bytes, the first master's %d", len(got), len(want))
	}
}

// A derived file is planned like any other. The master that materialises
// it cuts it at its cluster's slots; one recovering a journal whose
// snapshot has a queue for it keeps the segment count recorded there,
// whatever its own cluster's slots, so a consumer half way through the file
// resumes where it was; and a stage that materialises after the restart is
// cut at the new cluster's slots.
func TestDerivedFileKeepsItsJournalledSegments(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		store, err := workerStore()
		if err != nil {
			t.Fatal(err)
		}
		w := remote.NewWorker(store, remote.NewStandardRegistry())
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		addrs = append(addrs, addr)
	}
	consumer := remote.JobRef{Name: "wc-derived", Factory: "wordcount", Param: "1", NumReduce: 2}
	master, err := remote.Dial(addrs, map[scheduler.JobID]remote.JobRef{
		1: {Name: "producer", Factory: "selection", Param: "40", NumReduce: 2},
		2: consumer, // over job 1's output, interrupted
		3: {Name: "late-producer", Factory: "selection", Param: "30", NumReduce: 2},
		4: consumer, // over job 1's output, undisturbed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	// planning is drive()'s: the two files every worker serves, cut by width.
	planning := func(width func(string, int) (int, error)) (*dfs.Store, *core.MultiFile) {
		store := dfs.MustStore(2, 1)
		var plans []*dfs.SegmentPlan
		for _, name := range []string{"corpus", "lineitem"} {
			f, err := store.AddMetaFile(name, *blocks, *blockSize)
			if err != nil {
				t.Fatal(err)
			}
			w, err := width(name, *blocks)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := dfs.PlanSegments(f, w)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
		sched, err := core.NewMultiFile(plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		return store, sched
	}
	widthAt := func(slots int, recorded *journal.MasterState) func(string, int) (int, error) {
		return func(file string, blocks int) (int, error) { return planWidth(file, blocks, slots, recorded) }
	}
	segmentsOf := func(sched *core.MultiFile, file string) int {
		snap, err := sched.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range snap.Queues {
			if q.File == file {
				return q.Segments
			}
		}
		t.Fatalf("no queue for %s", file)
		return 0
	}
	rounds := func(sched *core.MultiFile, n int) {
		for i := 0; n < 0 || i < n; i++ {
			r, ok := sched.NextRound(0)
			if !ok {
				return
			}
			if _, err := master.ExecRound(r); err != nil {
				t.Fatal(err)
			}
			sched.RoundDone(r, 0)
		}
	}

	// First incarnation, two slots: both producers run, the first one's
	// output becomes a file, and the consumer rides one round over it.
	planStore, sched := planning(widthAt(2, nil))
	for _, id := range []scheduler.JobID{1, 3} {
		if err := sched.Submit(scheduler.JobMeta{ID: id, File: "lineitem"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds(sched, -1)
	if err := materializeStage(master, sched, planStore, nil, widthAt(2, nil), 1); err != nil {
		t.Fatal(err)
	}
	file := workload.DerivedFileName(1)
	f, err := planStore.File(file)
	if err != nil {
		t.Fatal(err)
	}
	was := segmentsOf(sched, file)
	if was != (f.NumBlocks+1)/2 || was == (f.NumBlocks+2)/3 || was < 3 {
		t.Fatalf("%s: %d blocks in %d segments: want two a segment, several, and a count three a segment would not give", file, f.NumBlocks, was)
	}
	if err := sched.Submit(scheduler.JobMeta{ID: 2, File: file}, 0); err != nil {
		t.Fatal(err)
	}
	rounds(sched, 1)
	snap, err := sched.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Second incarnation, three slots, recovering that snapshot.
	recorded := &journal.MasterState{Snapshot: &snap}
	planStore, sched = planning(widthAt(3, recorded))
	if err := materializeStage(master, sched, planStore, nil, widthAt(3, recorded), 1); err != nil {
		t.Fatal(err)
	}
	if got := segmentsOf(sched, file); got != was {
		t.Fatalf("%s recovered in %d segments, journalled in %d", file, got, was)
	}
	if err := sched.RestoreState(snap); err != nil {
		t.Fatalf("restoring the snapshot at another width: %v", err)
	}
	rounds(sched, -1)
	if err := sched.Submit(scheduler.JobMeta{ID: 4, File: file}, 0); err != nil {
		t.Fatal(err)
	}
	rounds(sched, -1)
	resumed, err := master.JobOutput(2)
	if err != nil {
		t.Fatal(err)
	}
	undisturbed, err := master.JobOutput(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) == 0 || fmt.Sprint(resumed) != fmt.Sprint(undisturbed) {
		t.Errorf("the resumed consumer's output has %d keys, the undisturbed one's %d, or they differ", len(resumed), len(undisturbed))
	}

	// A stage that materialises now is no queue of the snapshot's.
	if err := materializeStage(master, sched, planStore, nil, widthAt(3, recorded), 3); err != nil {
		t.Fatal(err)
	}
	late, err := planStore.File(workload.DerivedFileName(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentsOf(sched, late.Name); got != (late.NumBlocks+2)/3 {
		t.Errorf("%s: %d blocks in %d segments, want three a segment", late.Name, late.NumBlocks, got)
	}
}
