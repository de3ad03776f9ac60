package remote

import (
	"fmt"
	"net/rpc"
	"time"

	"s3sched/internal/journal"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// Durability and watchdog surface of the master.
//
// The master owns one of the journal's record kinds, because only it
// sees the commit point: job-result, appended in finishJob before the
// receipts are published, so a completed job stays completed through a
// crash that lands after the reduce but before the engine's job-done
// record. Map output is not journaled: it stays on the workers, where a
// recovered master on the same epoch finds it again, and what is gone by
// reduce time is mapped again. So a snapshot may claim a segment whose
// map output no worker holds, and the reducer's coverage check is what
// makes that safe.
//
// SetJournal/SetTaskDeadline are boot-time configuration: call them
// before the first round, like SetTrace.

// SetJournal installs the write-ahead journal the master appends its
// result commits to. nil disables journaling.
func (m *Master) SetJournal(j *journal.Journal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journal = j
}

// SetTaskDeadline bounds every Worker.ExecMap / Worker.ExecReduce call.
// A call that does not return within d is abandoned with a
// *TaskDeadlineError — classified as a transport failure, so the task
// fails over to the next live worker. A reducer waits half of d for each
// peer it fetches from. Zero disables the watchdog.
func (m *Master) SetTaskDeadline(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("remote: task deadline must be non-negative, got %v", d))
	}
	m.taskDeadline = d
}

// callWithin issues one RPC and, when d is positive, abandons it after
// d with a *TaskDeadlineError naming who. net/rpc has no native call
// timeout, so the asynchronous call races a timer; a reply that arrives
// later is discarded by the rpc client.
func callWithin(client *rpc.Client, who, method string, args, reply any, d time.Duration) error {
	if d <= 0 {
		return client.Call(method, args, reply)
	}
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-timer.C:
		return &TaskDeadlineError{Worker: who, Method: method, Deadline: d}
	}
}

// callWorker issues one worker RPC under the task deadline.
func (m *Master) callWorker(w liveWorker, method string, args, reply any) error {
	err := callWithin(w.client, w.id, method, args, reply, m.taskDeadline)
	if _, late := err.(*TaskDeadlineError); late {
		m.log.Addf(m.clock.Now(), trace.TaskDeadlineExceeded, -1, -1, "%v", err)
	}
	return err
}

// Epoch is this master's stash epoch, for a journal to keep.
func (m *Master) Epoch() int64 { return m.epoch }

// RestoreEpoch puts a recovered master back on the epoch its journal
// recorded, so the jobs it resumes find their map output where the
// crashed master's tasks left it, and its clock on the same zero. Call
// before the first round.
func (m *Master) RestoreEpoch(epoch int64) {
	m.epoch = epoch
	m.clock = vclock.NewWallSince(time.Unix(0, epoch))
}

// Clock is the master's wall clock: seconds since its epoch, the time
// of the first master of a recovered journal. A process's run loop and
// admission queue keep time by it too.
func (m *Master) Clock() *vclock.Wall { return m.clock }

// RestoreResult re-installs a completed job's journaled result so the
// admission API can serve its output after a restart.
func (m *Master) RestoreResult(rec journal.JobResultRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commitResult(rec)
}
