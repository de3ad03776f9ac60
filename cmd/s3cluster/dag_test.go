// DAG admission on the deployed master: what POST /jobs says of a stage,
// and what becomes of a stage whose producer's output cannot be made a
// file any more.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/workload"
)

// postRaw submits body and returns the status code, the decoded 202
// reply (zero otherwise) and the body text.
func postRaw(t *testing.T, base, body string) (code int, id int, state, text string) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var reply struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("decoding submit reply %q: %v", raw, err)
		}
	}
	return resp.StatusCode, reply.ID, reply.State, string(raw)
}

// POST /jobs validates dependsOn with the rule a workload file is held
// to, and its reply carries the state GET /jobs/<id> reports.
func TestDAGPostValidatesEdgesAndReportsState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	spawnMaster(t, "master", ctrl, statusAddr, "", "")
	startCrashWorker(t, ctrl, "worker-a")
	startCrashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })

	code, producer, state, text := postRaw(t, base, `{"factory":"wordcount","param":"t"}`)
	if code != http.StatusAccepted || state != "queued" && state != "running" {
		t.Fatalf("POST wordcount = %d %q", code, text)
	}
	dup := `{"factory":"topk","param":"3","dependsOn":[1,1]}`
	if code, _, _, text := postRaw(t, base, dup); code != http.StatusBadRequest || !strings.Contains(text, "lists dependency 1 twice") {
		t.Errorf("POST %s = %d %q, want 400 naming the dependency listed twice", dup, code, text)
	}
	if code, _, _, text := postRaw(t, base, `{"factory":"topk","param":"3","dependsOn":[7]}`); code != http.StatusBadRequest || !strings.Contains(text, "depends on unknown job 7") {
		t.Errorf("POST with a dangling dependsOn = %d %q, want 400", code, text)
	}
	// The producer's pass is 24 rounds and its reader's cannot start
	// before it ends: the reader's reader is held.
	_, reader, _, _ := postRaw(t, base, `{"factory":"topk","param":"3","dependsOn":[1]}`)
	code, last, state, text := postRaw(t, base, `{"factory":"wordcount","param":"t","dependsOn":[2]}`)
	if got, _ := jobDetail(t, base, last); code != http.StatusAccepted || state != "waiting" || got != "waiting" {
		t.Fatalf("POST on an unfinished producer = %d %q, GET says %q: want 202 waiting, waiting", code, text, got)
	}
	waitJobsDone(t, base, []int{producer, reader, last}, 60*time.Second)
	if states := jobStates(t, base); len(states) != 3 {
		t.Errorf("the refused submissions left jobs behind: %v", states)
	}
}

// A consumer submitted after its producer finished has the producer's
// output materialized on demand. When that output can no longer be
// fetched or recomputed — every worker gone — the consumer fails, with a
// line on the master's stderr, and the daemon carries on: a wordcount
// submitted beside it rides out the outage and finishes.
func TestDAGLateConsumerOfUnavailableOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process outage test")
	}
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	master := spawnMaster(t, "master", ctrl, statusAddr, "", "")
	wa, _ := crashWorker(t, ctrl, "worker-a")
	wb, _ := crashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })

	prefixes := workload.DistinctPrefixes(2)
	producer := postJob(t, base, "wordcount", prefixes[0])
	waitJobsDone(t, base, []int{producer}, 60*time.Second)

	wa.Close()
	wb.Close()
	deadline := time.Now().Add(30 * time.Second)
	for dead := 0; dead < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the master never noticed its workers gone")
		}
		var view struct {
			Workers []comms.WorkerInfo `json:"workers"`
		}
		if err := getJSON(base+"/cluster", &view); err != nil {
			t.Fatalf("GET /cluster: %v", err)
		}
		dead = 0
		for _, w := range view.Workers {
			if w.State == comms.Dead.String() {
				dead++
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	consumer := postJobDeps(t, base, "topk", "3", []int{producer})
	bystander := postJob(t, base, "wordcount", prefixes[1])
	deadline = time.Now().Add(30 * time.Second)
	for jobStates(t, base)[consumer] != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("the consumer of an unavailable output is %q, want failed", jobStates(t, base)[consumer])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The bystander's first round waits in RejoinGrace for this worker.
	startCrashWorker(t, ctrl, "worker-a")
	waitJobsDone(t, base, []int{bystander}, 60*time.Second)
	if err := master.cmd.Process.Signal(syscall.Signal(0)); err != nil {
		t.Errorf("master pid %d did not survive: %v", master.cmd.Process.Pid, err)
	}
	if states := jobStates(t, base); states[producer] != "done" || states[consumer] != "failed" {
		t.Errorf("producer %q consumer %q, want done and failed", states[producer], states[consumer])
	}
	if out, err := os.ReadFile(master.log); err != nil || !bytes.Contains(out, []byte("output cannot become a file")) {
		t.Errorf("the master's log does not say why the consumer failed (%v):\n%s", err, out)
	}
}
