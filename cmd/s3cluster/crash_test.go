// Multi-process crash-recovery test: a real master process is
// SIGKILLed mid-pass and restarted on the same journal, and every job
// admitted before the crash must still complete — with output
// byte-identical to an uninterrupted run.
//
// The master runs as a subprocess (re-executing this test binary with
// S3CLUSTER_HELPER=master, the standard helper-process trick) so the
// kill is a genuine process death: no deferred cleanup, no flushes,
// nothing but what the journal already fsynced (or, here with
// -fsync=never, what the OS already has — SIGKILL does not lose OS
// buffers). Workers live in the test process; their reconnect-forever
// control loops carry them across the master restart exactly as a real
// deployment's would.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/remote"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// Crash-test corpus: big enough that one circular pass is ~24 rounds,
// so the kill reliably lands mid-pass.
const (
	crashBlocks    = 48
	crashBlockSize = 32 << 10
	crashSeed      = 31
)

func TestMain(m *testing.M) {
	helper := map[string]func() error{"master": helperMaster, "worker": helperWorker}[os.Getenv("S3CLUSTER_HELPER")]
	if helper != nil {
		if err := helper(); err != nil {
			fmt.Fprintln(os.Stderr, "helper "+os.Getenv("S3CLUSTER_HELPER")+":", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// helperMaster runs the real daemon entry point with configuration
// from the environment (the helper process never calls flag.Parse, so
// the globals are set directly).
func helperMaster() error {
	*role = "master"
	*serve = true
	*ctrlAddr = os.Getenv("S3CLUSTER_CTRL")
	*statAddr = os.Getenv("S3CLUSTER_STATUS")
	*journalPath = os.Getenv("S3CLUSTER_JOURNAL")
	*traceJSON = os.Getenv("S3CLUSTER_TRACE")
	*fsyncMode = "never"
	*jobs = 0
	*blocks = crashBlocks
	*blockSize = crashBlockSize
	*seed = crashSeed
	*minWorkers = 2
	*hb = 100 * time.Millisecond
	return runMaster()
}

// masterProc is one spawned master incarnation (or worker process).
type masterProc struct {
	cmd *exec.Cmd
	log string
}

func spawnMaster(t *testing.T, name, ctrl, status, journal, traceFile string) *masterProc {
	t.Helper()
	return spawnHelper(t, name,
		"S3CLUSTER_HELPER=master",
		"S3CLUSTER_CTRL="+ctrl,
		"S3CLUSTER_STATUS="+status,
		"S3CLUSTER_JOURNAL="+journal,
		"S3CLUSTER_TRACE="+traceFile,
	)
}

// spawnHelper re-executes the test binary as the helper env selects.
func spawnHelper(t *testing.T, name string, env ...string) *masterProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	logPath := filepath.Join(t.TempDir(), name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("creating %s: %v", logPath, err)
	}
	cmd := exec.Command(exe)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), env...)
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("starting %s: %v", name, err)
	}
	logf.Close() // the child holds its own descriptor
	mp := &masterProc{cmd: cmd, log: logPath}
	t.Cleanup(func() {
		if mp.cmd.ProcessState == nil {
			mp.cmd.Process.Kill()
			mp.cmd.Wait()
		}
		if t.Failed() {
			if out, err := os.ReadFile(logPath); err == nil && len(out) > 0 {
				t.Logf("--- %s output ---\n%s", name, out)
			}
		}
	})
	return mp
}

// wait reaps the process, returning its exit error.
func (m *masterProc) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		m.cmd.Process.Kill()
		t.Fatalf("master did not exit within %v", timeout)
		return nil
	}
}

// startCrashWorker serves the crash-test corpus in-process and
// registers with the master's control plane at a 100 ms heartbeat, so it
// re-dials a restarted master 10 ms after losing it, doubling to 500 ms.
func startCrashWorker(t *testing.T, ctrl, id string) *dfs.Store {
	t.Helper()
	_, store := crashWorker(t, ctrl, id)
	return store
}

// crashWorker is startCrashWorker for a test that kills the worker too.
func crashWorker(t *testing.T, ctrl, id string) (*remote.Worker, *dfs.Store) {
	t.Helper()
	store, err := dfs.NewStore(1, 1)
	if err != nil {
		t.Fatalf("worker store: %v", err)
	}
	if _, err := workload.AddTextFile(store, "corpus", crashBlocks, crashBlockSize, crashSeed); err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if _, err := workload.AddLineitemFile(store, "lineitem", crashBlocks, crashBlockSize, crashSeed); err != nil {
		t.Fatalf("lineitem: %v", err)
	}
	// What -cachemb gives a worker process, at a budget of a third of its
	// share of a file: LRU would earn no hit on the circular scan, so the
	// hits it earns are the scan hints' doing.
	if _, err := store.EnableCachePolicy(crashBlocks/2/3*crashBlockSize, dfs.PolicyCursor); err != nil {
		t.Fatalf("worker cache: %v", err)
	}
	w := remote.NewWorker(store, remote.NewStandardRegistry())
	if _, err := w.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	if err := w.Register(ctrl, remote.RegisterOptions{ID: id, Heartbeat: 100 * time.Millisecond}); err != nil {
		w.Close()
		t.Fatalf("worker register: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, store
}

// clusterCacheHits sums the cache hits of the workers' heartbeat ledgers
// in GET /cluster.
func clusterCacheHits(t *testing.T, base string) (hits int64) {
	t.Helper()
	var view struct {
		Workers []comms.WorkerInfo `json:"workers"`
	}
	if err := getJSON(base+"/cluster", &view); err != nil {
		t.Fatalf("GET /cluster: %v", err)
	}
	for _, w := range view.Workers {
		hits += w.Tasks.CacheHits
	}
	return hits
}

// scrapeMetric reads one sample off the master's GET /metrics.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("/metrics line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// pickAddr picks a free port for a subprocess to bind, and to bind again
// when a test restarts it. The port is taken on a loopback host of the
// test's own, 127.a.b.c, where the system routes all of 127.0.0.0/8 to
// loopback (Linux does): every outgoing connection on the machine binds
// 127.0.0.1 and a port from the range the kernel picks free ports from,
// so a port picked on 127.0.0.1 is taken, now and then, by some other
// test's dial before the master binds it, and the master fails with
// "address already in use". Elsewhere it falls back to 127.0.0.1.
func pickAddr(t *testing.T) string {
	t.Helper()
	host := fmt.Sprintf("127.%d.%d.%d", 1+rand.IntN(254), rand.IntN(256), 1+rand.IntN(254))
	ln, err := net.Listen("tcp", host+":0")
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		t.Fatalf("picking port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// statusSnapshot is the slice of /status.json this test reads.
type statusSnapshot struct {
	Rounds      int `json:"rounds"`
	PendingJobs int `json:"pendingJobs"`
	DoneJobs    int `json:"doneJobs"`
	Recovery    *struct {
		Recoveries    int `json:"recoveries"`
		JobsResumed   int `json:"jobsResumed"`
		JobsRestarted int `json:"jobsRestarted"`
	} `json:"recovery"`
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// waitStatus polls /status.json until cond holds or the deadline hits.
func waitStatus(t *testing.T, base string, timeout time.Duration, what string, cond func(statusSnapshot) bool) statusSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last statusSnapshot
	var lastErr error
	for time.Now().Before(deadline) {
		var st statusSnapshot
		if err := getJSON(base+"/status.json", &st); err != nil {
			lastErr = err
		} else {
			last, lastErr = st, nil
			if cond(st) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (last %+v, err %v)", what, last, lastErr)
	return last
}

func postJob(t *testing.T, base, factory, param string) int {
	t.Helper()
	body := fmt.Sprintf(`{"factory":%q,"param":%q}`, factory, param)
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

// jobOutputs fetches every job's merged output as raw JSON bytes.
func jobOutputs(t *testing.T, base string, ids []int) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte, len(ids))
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/output", base, id))
		if err != nil {
			t.Fatalf("GET /jobs/%d/output: %v", id, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%d/output: %s: %s", id, resp.Status, body)
		}
		out[id] = body
	}
	return out
}

// jobStates decodes GET /jobs into id→state.
func jobStates(t *testing.T, base string) map[int]string {
	t.Helper()
	var jobs []struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := getJSON(base+"/jobs", &jobs); err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	out := make(map[int]string, len(jobs))
	for _, j := range jobs {
		out[j.ID] = j.State
	}
	return out
}

// submitCrashJobs submits n distinct wordcount jobs and returns their
// assigned ids in submission order.
func submitCrashJobs(t *testing.T, base string, n int) []int {
	t.Helper()
	prefixes := workload.DistinctPrefixes(n)
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, postJob(t, base, "wordcount", prefixes[i]))
	}
	return ids
}

func waitJobsDone(t *testing.T, base string, ids []int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		states := jobStates(t, base)
		done := 0
		for _, id := range ids {
			if states[id] == "done" {
				done++
			}
		}
		if done == len(ids) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d job(s) to complete (states %v)", len(ids), jobStates(t, base))
}

func TestMasterCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test")
	}
	dir := t.TempDir()
	const numJobs = 6

	// --- incarnation 1: killed mid-pass -------------------------------
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(dir, "journal.wal")
	tracePath := filepath.Join(dir, "trace.json")
	base := "http://" + statusAddr

	m1 := spawnMaster(t, "master1", ctrl, statusAddr, journalPath, "")
	stores := []*dfs.Store{startCrashWorker(t, ctrl, "worker-a"), startCrashWorker(t, ctrl, "worker-b")}
	waitStatus(t, base, 30*time.Second, "master1 up", func(statusSnapshot) bool { return true })

	// A job is stamped admitted while its POST is answered: admitted[id]
	// is the stamp, acked[id] the instant the answer came back.
	var ids []int
	acked, admitted := map[int]time.Time{}, map[int]float64{}
	for _, prefix := range workload.DistinctPrefixes(numJobs) {
		id := postJob(t, base, "wordcount", prefix)
		ids, acked[id], admitted[id] = append(ids, id), time.Now(), getJobTimes(t, base, id).AdmittedAt
	}
	// One pass over the corpus is crashBlocks/2 = 24 rounds; by round 3
	// every job is still mid-flight.
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool {
		return st.Rounds >= 3
	})
	if err := m1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL master1: %v", err)
	}
	killed := time.Now()
	_ = m1.cmd.Wait() // reap; exit status is meaningless after SIGKILL
	// With no master there are no tasks: the workers' cache counters stand
	// at what the first incarnation's hints caused. Its first rounds read
	// ahead into the empty caches.
	var prefetched int64
	for _, store := range stores {
		prefetched += store.CacheStats().Prefetches
	}
	if prefetched == 0 {
		t.Error("master1's map tasks caused no readahead: its scheduler's hints are not wired")
	}

	// --- incarnation 2: same journal, same addresses ------------------
	m2 := spawnMaster(t, "master2", ctrl, statusAddr, journalPath, tracePath)
	waitStatus(t, base, 30*time.Second, "master2 recovery", func(st statusSnapshot) bool {
		return st.Recovery != nil
	})
	waitJobsDone(t, base, ids, 60*time.Second)
	// The recovered master hints again — its hinter is wired before the
	// journal is replayed and kept by RestoreState. Three selections scan
	// the other file, one after another, a whole cycle each. Caches a
	// third of each worker's share earn hits on the third only through
	// master2's hints: the corpus master1's hints left cached drains away
	// in the first cycle, and the second fills the caches with the blocks
	// the cursor reaches soonest. LRU, all a worker has for a file it got
	// no hint for, earns none on a circular scan. A heartbeat later
	// master2's /cluster says so.
	cacheHits := func() (hits int64) {
		for _, store := range stores {
			hits += store.CacheStats().Hits
		}
		return hits
	}
	var before, after int64
	for range 3 {
		before = cacheHits()
		waitJobsDone(t, base, []int{postJob(t, base, "selection", "25")}, 60*time.Second)
		after = cacheHits()
	}
	if want := int64(crashBlocks / 6); after-before < want {
		t.Errorf("the third cycle after recovery earned %d cache hits, want at least %d: master2's hints are not reaching the workers", after-before, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h := clusterCacheHits(t, base); h < after; h = clusterCacheHits(t, base) {
		if time.Now().After(deadline) {
			t.Errorf("/cluster after recovery: %d hits, the workers have %d", h, after)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := waitStatus(t, base, 5*time.Second, "recovery visible", func(st statusSnapshot) bool {
		return st.Recovery != nil && st.Recovery.Recoveries >= 1
	})
	if st.Recovery.JobsResumed == 0 {
		t.Errorf("recovery resumed no job mid-pass: %+v", st.Recovery)
	}
	// A resumed job keeps the submission time its snapshot carried, on a
	// clock that counts from master1's epoch, so its latency spans the
	// crash; a resubmitted one is measured from its resubmission.
	kept := 0
	for _, id := range ids {
		jt := getJobTimes(t, base, id)
		if jt.AdmittedAt != admitted[id] {
			continue
		}
		kept++
		if latency, crash := jt.DoneAt-jt.AdmittedAt, killed.Sub(acked[id]).Seconds(); latency < crash {
			t.Errorf("job %d resumed: doneAt − admittedAt = %.3f s, shorter than the %.3f s from its POST to the kill", id, latency, crash)
		}
	}
	if kept < st.Recovery.JobsResumed {
		t.Errorf("%d of %d jobs kept master1's admission stamp; %d were resumed mid-pass", kept, len(ids), st.Recovery.JobsResumed)
	}
	got := jobOutputs(t, base, ids)
	// No worker died, and the journal kept the first incarnation's stash
	// epoch: every resumed job found its map output where it was left.
	if repairs := scrapeMetric(t, base, "s3_shuffle_repair_maps_total"); repairs != 0 {
		t.Errorf("%v repair maps after a master crash with both workers alive, want 0", repairs)
	}

	// --- reference: uninterrupted run on a fresh journal --------------
	refCtrl, refStatus := pickAddr(t), pickAddr(t)
	refBase := "http://" + refStatus
	ref := spawnMaster(t, "reference", refCtrl, refStatus, filepath.Join(dir, "ref.wal"), "")
	startCrashWorker(t, refCtrl, "ref-worker-a")
	startCrashWorker(t, refCtrl, "ref-worker-b")
	waitStatus(t, refBase, 30*time.Second, "reference up", func(statusSnapshot) bool { return true })
	refIDs := submitCrashJobs(t, refBase, numJobs)
	waitJobsDone(t, refBase, refIDs, 60*time.Second)
	want := jobOutputs(t, refBase, refIDs)

	for i, id := range ids {
		if !bytes.Equal(got[id], want[refIDs[i]]) {
			t.Errorf("job %d: output diverges from uninterrupted run (%d vs %d bytes)",
				id, len(got[id]), len(want[refIDs[i]]))
		}
	}

	// --- graceful shutdown + trace assertion --------------------------
	// SIGINT drains both daemons; master2 writes its trace on the way
	// out, which must record the recovery event.
	if err := ref.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT reference: %v", err)
	}
	_ = ref.wait(t, 30*time.Second)
	if err := m2.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT master2: %v", err)
	}
	if err := m2.wait(t, 30*time.Second); err != nil {
		t.Fatalf("master2 exited uncleanly: %v", err)
	}
	traceOut, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if !bytes.Contains(traceOut, []byte("journal-recovered")) {
		t.Error("exported trace lacks the journal-recovered event")
	}
}

// TestRecoversJournalOfParentBinary is the cross-version case. The
// fixture is the journal of a master built from the commit before the
// shuffle left the master, SIGKILLed five rounds into three wordcount
// jobs (prefixes t, a, w; this file's corpus flags): it holds twelve
// shuffle-committed records with their parts and no master-epoch record.
// This binary reads past the former, resumes the jobs from the snapshot
// with their map output gone — the workers here never saw those tasks —
// and finishes them through repair, byte-identical.
func TestRecoversJournalOfParentBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process recovery test")
	}
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-midpass.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(fixture, []byte(`"kind":"shuffle-committed"`)); n != 12 || bytes.Contains(fixture, []byte(`"master-epoch"`)) {
		t.Fatalf("fixture has %d shuffle-committed records: not the parent's journal", n)
	}
	journalPath := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(journalPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 2, 3}

	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	m := spawnMaster(t, "master", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "worker-a")
	startCrashWorker(t, ctrl, "worker-b")
	st := waitStatus(t, base, 30*time.Second, "recovery", func(st statusSnapshot) bool { return st.Recovery != nil })
	if st.Recovery.JobsResumed != len(ids) {
		t.Errorf("recovery %+v, want all %d jobs resumed mid-pass", st.Recovery, len(ids))
	}
	waitJobsDone(t, base, ids, 60*time.Second)
	got := jobOutputs(t, base, ids)
	if repairs := scrapeMetric(t, base, "s3_shuffle_repair_maps_total"); repairs == 0 {
		t.Error("no repair maps: the resumed jobs' earlier segments were mapped by nobody these workers know")
	}

	refCtrl, refStatus := pickAddr(t), pickAddr(t)
	refBase := "http://" + refStatus
	ref := spawnMaster(t, "reference", refCtrl, refStatus, filepath.Join(dir, "ref.wal"), "")
	startCrashWorker(t, refCtrl, "ref-worker-a")
	startCrashWorker(t, refCtrl, "ref-worker-b")
	waitStatus(t, refBase, 30*time.Second, "reference up", func(statusSnapshot) bool { return true })
	refIDs := submitCrashJobs(t, refBase, len(ids))
	waitJobsDone(t, refBase, refIDs, 60*time.Second)
	want := jobOutputs(t, refBase, refIDs)
	for i, id := range ids {
		if !bytes.Equal(got[id], want[refIDs[i]]) {
			t.Errorf("job %d: output diverges from an uninterrupted run of this binary (%d vs %d bytes)", id, len(got[id]), len(want[refIDs[i]]))
		}
	}
	for _, p := range []*masterProc{ref, m} {
		if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatalf("SIGINT: %v", err)
		}
		if err := p.wait(t, 30*time.Second); err != nil {
			t.Fatalf("master exited uncleanly: %v", err)
		}
	}
	// The first open by a binary that knows the record wrote it.
	after, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(after, []byte(`"kind":"master-epoch"`)); n != 1 {
		t.Errorf("%d master-epoch records after recovery, want 1", n)
	}
}

// The width of a segment is durable state: a journal written by a master
// whose two workers had one map slot each — 24 segments of two blocks — is
// recovered by one whose workers bring four between them, and whose fresh
// plan would be 12 segments of four. It keeps the 24, says so, resumes the
// jobs mid-pass and finishes them with the outputs of an uninterrupted run
// at width four. One worker is replaced meanwhile — that is what changes
// the slots — so what it had mapped is mapped again.
func TestRecoversJournalAtAnotherWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process recovery test")
	}
	dir := t.TempDir()
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(dir, "journal.wal")
	base := "http://" + statusAddr
	bootLine := func(m *masterProc, want string) {
		t.Helper()
		if out, err := os.ReadFile(m.log); err != nil || !bytes.Contains(out, []byte(want+"\n")) {
			t.Errorf("the master's log lacks %q (%v):\n%s", want, err, out)
		}
	}

	// A worker advertises the processors it is built on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m1 := spawnMaster(t, "master1", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "worker-a")
	narrow, _ := crashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master1 up", func(statusSnapshot) bool { return true })
	bootLine(m1, "plan width 2 = 2 map slots on 2 workers")
	ids := submitCrashJobs(t, base, 4)
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool { return st.Rounds >= 3 })
	if err := m1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL master1: %v", err)
	}
	_ = m1.cmd.Wait()
	narrow.Close()
	runtime.GOMAXPROCS(3)
	startCrashWorker(t, ctrl, "worker-b")

	m2 := spawnMaster(t, "master2", ctrl, statusAddr, journalPath, "")
	st := waitStatus(t, base, 30*time.Second, "master2 recovery", func(st statusSnapshot) bool { return st.Recovery != nil })
	bootLine(m2, "plan width 2 = journal, not the 4 map slots on 2 workers")
	if st.Recovery.JobsResumed == 0 {
		t.Errorf("recovery %+v, want jobs resumed mid-pass", st.Recovery)
	}
	waitJobsDone(t, base, ids, 60*time.Second)
	got := jobOutputs(t, base, ids)

	refCtrl, refStatus := pickAddr(t), pickAddr(t)
	refBase := "http://" + refStatus
	ref := spawnMaster(t, "reference", refCtrl, refStatus, filepath.Join(dir, "ref.wal"), "")
	startCrashWorker(t, refCtrl, "ref-worker-a")
	runtime.GOMAXPROCS(1)
	startCrashWorker(t, refCtrl, "ref-worker-b")
	waitStatus(t, refBase, 30*time.Second, "reference up", func(statusSnapshot) bool { return true })
	bootLine(ref, "plan width 4 = 4 map slots on 2 workers")
	refIDs := submitCrashJobs(t, refBase, len(ids))
	waitJobsDone(t, refBase, refIDs, 60*time.Second)
	want := jobOutputs(t, refBase, refIDs)
	for i, id := range ids {
		if len(got[id]) == 0 || !bytes.Equal(got[id], want[refIDs[i]]) {
			t.Errorf("job %d: %d bytes of output, %d from an uninterrupted run at width 4", id, len(got[id]), len(want[refIDs[i]]))
		}
	}
	if rounds := scrapeMetric(t, refBase, "s3_job_rounds_sum"); rounds != float64(len(ids)*crashBlocks/4) {
		t.Errorf("the reference's jobs rode %v rounds between them, want %d each", rounds, crashBlocks/4)
	}
	for _, p := range []*masterProc{ref, m2} {
		if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatalf("SIGINT: %v", err)
		}
		if err := p.wait(t, 30*time.Second); err != nil {
			t.Fatalf("master exited uncleanly: %v", err)
		}
	}
}

// A segment count no width gives the file's blocks — the journal of a
// cluster started with another -blocks — is an error that names both; a
// file the snapshot does not know is cut at the cluster's slots.
func TestPlanWidth(t *testing.T) {
	recorded := &journal.MasterState{Snapshot: &scheduler.Snapshot{Queues: []scheduler.QueueSnapshot{{File: "corpus", Segments: 24}}}}
	for _, c := range []struct {
		file          string
		blocks, slots int
		recorded      *journal.MasterState
		width         int
	}{
		{"corpus", 48, 4, nil, 4},
		{"corpus", 48, 4, &journal.MasterState{}, 4},
		{"lineitem", 48, 4, recorded, 4},
		{"corpus", 48, 4, recorded, 2},
		{"corpus", 48, 2, recorded, 2},
		{"corpus", 24, 4, recorded, 1},
		{"corpus", 70, 4, recorded, 3}, // 3 and nothing else: 24 segments of 70 blocks
		{"corpus", 94, 4, recorded, 4}, // 4 still cuts 94 blocks into 24
	} {
		if width, err := planWidth(c.file, c.blocks, c.slots, c.recorded); err != nil || width != c.width {
			t.Errorf("planWidth(%s, %d blocks, %d slots) = %d, %v; want %d", c.file, c.blocks, c.slots, width, err, c.width)
		}
	}
	if _, err := planWidth("corpus", 50, 4, recorded); err == nil || !strings.Contains(err.Error(), "24 segments") || !strings.Contains(err.Error(), "50 blocks") {
		t.Errorf("24 journalled segments over 50 blocks: err = %v, want one naming both numbers", err)
	}
}

// TestSigtermCheckpointResume covers the graceful path: SIGTERM makes
// the daemon checkpoint at a round boundary and exit; a restart on the
// same journal resumes and finishes the pending jobs.
func TestSigtermCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process checkpoint test")
	}
	dir := t.TempDir()
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(dir, "journal.wal")
	base := "http://" + statusAddr

	m1 := spawnMaster(t, "master1", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "worker-a")
	startCrashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master1 up", func(statusSnapshot) bool { return true })

	ids := submitCrashJobs(t, base, 4)
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool {
		return st.Rounds >= 2
	})
	if err := m1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM master1: %v", err)
	}
	if err := m1.wait(t, 30*time.Second); err != nil {
		t.Fatalf("master1 exited uncleanly after SIGTERM: %v", err)
	}
	logOut, err := os.ReadFile(m1.log)
	if err != nil {
		t.Fatalf("reading master1 log: %v", err)
	}
	if !bytes.Contains(logOut, []byte("checkpoint written")) {
		t.Fatalf("master1 wrote no checkpoint; log:\n%s", logOut)
	}

	m2 := spawnMaster(t, "master2", ctrl, statusAddr, journalPath, "")
	waitStatus(t, base, 30*time.Second, "master2 recovery", func(st statusSnapshot) bool {
		return st.Recovery != nil
	})
	waitJobsDone(t, base, ids, 60*time.Second)

	if err := m2.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT master2: %v", err)
	}
	_ = m2.wait(t, 30*time.Second)
}

// TestSigtermCountsOnlyDoneJobs: a journaled master stopped by SIGTERM
// with jobs pending reports as completed the jobs that are done — as
// many as its journal has job-done records for — not every job it
// admitted.
func TestSigtermCountsOnlyDoneJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process checkpoint test")
	}
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(t.TempDir(), "journal.wal")
	base := "http://" + statusAddr
	m := spawnMaster(t, "master", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "worker-a")
	startCrashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })
	submitCrashJobs(t, base, 4)
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool { return st.Rounds >= 2 })
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM master: %v", err)
	}
	if err := m.wait(t, 30*time.Second); err != nil {
		t.Fatalf("master exited uncleanly after SIGTERM: %v", err)
	}
	logOut, err := os.ReadFile(m.log)
	if err != nil {
		t.Fatal(err)
	}
	var rounds, pending, completed int
	if i := bytes.Index(logOut, []byte("checkpoint written")); i < 0 {
		t.Fatalf("no checkpoint; log:\n%s", logOut)
	} else if _, err := fmt.Sscanf(string(logOut[i:]), "checkpoint written after %d round(s): %d job(s) pending", &rounds, &pending); err != nil || pending == 0 {
		t.Fatalf("checkpoint line with %d pending (%v), want jobs pending; log:\n%s", pending, err, logOut)
	}
	if i := bytes.Index(logOut, []byte("completed ")); i < 0 {
		t.Fatalf("no completion line; log:\n%s", logOut)
	} else if _, err := fmt.Sscanf(string(logOut[i:]), "completed %d jobs", &completed); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := journal.Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	st, err := journal.ReduceEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	if completed != len(st.Done) {
		t.Errorf("completed %d jobs with %d pending, want the journal's %d done", completed, pending, len(st.Done))
	}
}

// TestSigtermStopsWorkerlessMaster: SIGTERM stops a master at the next
// round boundary whether or not it journals, and a lost round is one.
// Both worker processes are SIGKILLed with jobs in flight, so the
// boundary comes when RejoinGrace (10 s) runs out; the master, which
// has no journal to checkpoint into, then exits 0.
func TestSigtermStopsWorkerlessMaster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process outage test")
	}
	t.Parallel()
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	master := spawnMaster(t, "master", ctrl, statusAddr, "", "")
	workers := []*masterProc{spawnWorker(t, "worker-a", ctrl, "worker-a"), spawnWorker(t, "worker-b", ctrl, "worker-b")}
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })
	submitCrashJobs(t, base, 2)
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool { return st.Rounds >= 2 })
	for _, w := range workers {
		if err := w.cmd.Process.Kill(); err != nil {
			t.Fatalf("SIGKILL worker: %v", err)
		}
		_ = w.cmd.Wait()
	}
	if err := master.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM master: %v", err)
	}
	if err := master.wait(t, 20*time.Second); err != nil {
		t.Fatalf("master exited uncleanly after SIGTERM: %v", err)
	}
	logOut, err := os.ReadFile(master.log)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(logOut, []byte("checkpoint written")) {
		t.Errorf("a master without a journal wrote a checkpoint; log:\n%s", logOut)
	}
}

// recoveredOutputs is the durability contract of a done job's output: two
// selections finish under a journaling master, which is SIGKILLed; a
// second incarnation on the same journal — receipts restored, the stash
// epoch kept — answers GET /jobs/<id>/output with the same bytes. With
// both workers still up they come from where the receipts say, and
// nothing is computed again; with one of them replaced by an empty
// process meanwhile, half of each output is gone and is recomputed. The
// journal holds no output, only receipts: no record is larger than 4 KB.
func recoveredOutputs(t *testing.T, loseHolder bool) {
	if testing.Short() {
		t.Skip("multi-process crash test")
	}
	dir := t.TempDir()
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	journalPath := filepath.Join(dir, "journal.wal")
	base := "http://" + statusAddr

	m1 := spawnMaster(t, "master1", ctrl, statusAddr, journalPath, "")
	startCrashWorker(t, ctrl, "worker-a")
	victim, _ := crashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master1 up", func(statusSnapshot) bool { return true })
	ids := []int{postJob(t, base, "selection", "25"), postJob(t, base, "selection", "40")}
	waitJobsDone(t, base, ids, 60*time.Second)
	want := jobOutputs(t, base, ids)
	if err := m1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL master1: %v", err)
	}
	_ = m1.cmd.Wait()
	if loseHolder {
		victim.Close()
		startCrashWorker(t, ctrl, "worker-b")
	}

	m2 := spawnMaster(t, "master2", ctrl, statusAddr, journalPath, "")
	waitStatus(t, base, 30*time.Second, "master2 recovery", func(st statusSnapshot) bool { return st.Recovery != nil })
	got := jobOutputs(t, base, ids)
	for _, id := range ids {
		if len(want[id]) < 1<<10 || !bytes.Equal(got[id], want[id]) {
			t.Errorf("job %d: %d bytes after the restart, %d before", id, len(got[id]), len(want[id]))
		}
	}
	recomputes := scrapeMetric(t, base, "s3_result_recomputes_total")
	if mismatches := scrapeMetric(t, base, "s3_result_recompute_mismatches_total"); mismatches != 0 || (recomputes != 0) != loseHolder {
		t.Errorf("%v recomputes and %v mismatches with holder lost = %v", recomputes, mismatches, loseHolder)
	}
	if err := m2.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("SIGINT master2: %v", err)
	}
	if err := m2.wait(t, 30*time.Second); err != nil {
		t.Fatalf("master2 exited uncleanly: %v", err)
	}

	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := journal.Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	for _, e := range entries {
		if e.Kind == journal.KindJobResult {
			results++
		}
		if len(e.Data) > 4<<10 {
			t.Errorf("a %s record of %d bytes: the journal of non-DAG jobs holds receipts, not output", e.Kind, len(e.Data))
		}
	}
	if results != len(ids) {
		t.Errorf("%d job-result records for %d jobs", results, len(ids))
	}
}

func TestRecoveredMasterServesHeldResults(t *testing.T)    { recoveredOutputs(t, false) }
func TestRecoveredMasterRecomputesLostResult(t *testing.T) { recoveredOutputs(t, true) }
