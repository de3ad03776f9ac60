package main

import (
	"bytes"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// helperWorker runs the real worker entry point against the crash-test
// corpus, registering with the master named in the environment and
// serving its profiler on the status address named there.
func helperWorker() error {
	*role = "worker"
	*masterAddr = os.Getenv("S3CLUSTER_MASTER")
	*statAddr = os.Getenv("S3CLUSTER_STATUS")
	*workerID = os.Getenv("S3CLUSTER_ID")
	*blocks = crashBlocks
	*blockSize = crashBlockSize
	*seed = crashSeed
	*hb = 100 * time.Millisecond
	return runWorker()
}

func spawnWorker(t *testing.T, name, ctrl, id string) *masterProc {
	t.Helper()
	return spawnHelper(t, name, "S3CLUSTER_HELPER=worker", "S3CLUSTER_MASTER="+ctrl, "S3CLUSTER_ID="+id)
}

// TestWorkerServesProfiler boots the worker entry point with -status:
// its /debug/pprof/ is where a worker's CPU profile is read.
func TestWorkerServesProfiler(t *testing.T) {
	statusAddr := pickAddr(t)
	spawnHelper(t, "worker", "S3CLUSTER_HELPER=worker", "S3CLUSTER_STATUS="+statusAddr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + statusAddr + "/debug/pprof/cmdline")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /debug/pprof/cmdline on a worker: %s", resp.Status)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the worker's status address never answered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFullOutageOnDeployedMaster is DESIGN.md §11's full-outage loop on
// the binary that ships: both worker processes are SIGKILLed mid-job, the
// master — whose scheduler is drive()'s core.NewMultiFile — requeues the
// round their death interrupted and waits out RejoinGrace, one worker
// comes back inside it, and the jobs finish on the same master process
// with the outputs of an undisturbed run. A scheduler that cannot requeue
// ends the master's run at the first lost round instead.
func TestFullOutageOnDeployedMaster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process outage test")
	}
	const numJobs = 2
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	master := spawnMaster(t, "master", ctrl, statusAddr, "", "")
	workers := []*masterProc{spawnWorker(t, "worker-a", ctrl, "worker-a"), spawnWorker(t, "worker-b", ctrl, "worker-b")}
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })

	ids := submitCrashJobs(t, base, numJobs)
	// A pass is crashBlocks ÷ plan width rounds; by round 3 both jobs are
	// mid-flight.
	waitStatus(t, base, 30*time.Second, "rounds to accumulate", func(st statusSnapshot) bool {
		return st.Rounds >= 3
	})
	for _, w := range workers {
		if err := w.cmd.Process.Kill(); err != nil {
			t.Fatalf("SIGKILL worker: %v", err)
		}
		_ = w.cmd.Wait()
	}
	// The round the kill interrupted is lost at once; had the kill fallen
	// between two rounds, the next one is lost when its grace runs out.
	deadline := time.Now().Add(30 * time.Second)
	for scrapeMetric(t, base, "s3_requeued_rounds_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a full outage requeued no round")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The requeued round now waits in RejoinGrace for this worker.
	spawnWorker(t, "worker-a2", ctrl, "worker-a")
	waitJobsDone(t, base, ids, 60*time.Second)
	got := jobOutputs(t, base, ids)
	if st := waitStatus(t, base, 5*time.Second, "status", func(statusSnapshot) bool { return true }); st.Recovery != nil {
		t.Errorf("the jobs finished on a recovered master: %+v", st.Recovery)
	}
	if err := master.cmd.Process.Signal(syscall.Signal(0)); err != nil {
		t.Errorf("master pid %d did not survive the outage: %v", master.cmd.Process.Pid, err)
	}

	refCtrl, refStatus := pickAddr(t), pickAddr(t)
	refBase := "http://" + refStatus
	spawnMaster(t, "reference", refCtrl, refStatus, "", "")
	startCrashWorker(t, refCtrl, "ref-worker-a")
	startCrashWorker(t, refCtrl, "ref-worker-b")
	waitStatus(t, refBase, 30*time.Second, "reference up", func(statusSnapshot) bool { return true })
	refIDs := submitCrashJobs(t, refBase, numJobs)
	waitJobsDone(t, refBase, refIDs, 60*time.Second)
	want := jobOutputs(t, refBase, refIDs)
	for i, id := range ids {
		if !bytes.Equal(got[id], want[refIDs[i]]) {
			t.Errorf("job %d: output diverges from the undisturbed run (%d vs %d bytes)", id, len(got[id]), len(want[refIDs[i]]))
		}
	}
}
