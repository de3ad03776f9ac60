package remote

import (
	"fmt"
	"net/rpc"
	"time"

	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// Durability and watchdog surface of the master.
//
// The master owns two of the journal's record kinds, because only it
// sees the corresponding commit points:
//
//   - shuffle-committed: appended inside ExecRound's merge section, the
//     moment a segment's map output enters the in-memory shuffle state.
//     It always reaches the journal before the engine's round-committed
//     record for the same round (the engine commits after ExecRound
//     returns), so a replayed snapshot never counts a segment whose
//     shuffle record is missing. A crash between the two re-executes
//     the segment's maps; the per-(job,segment) ledger makes the re-run
//     a no-op merge.
//   - job-result: appended in finishJob before the reduce output is
//     published, so a completed job's output survives a crash that
//     lands after the reduce but before the engine's job-done record.
//
// SetJournal/SetTaskDeadline are boot-time configuration: call them
// before the first round, like SetTrace.

// SetJournal installs the write-ahead journal the master appends its
// shuffle and result commits to. nil disables journaling.
func (m *Master) SetJournal(j *journal.Journal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journal = j
}

// SetTaskDeadline bounds every Worker.ExecMap / Worker.ExecReduce call.
// A call that does not return within d is abandoned with a
// *TaskDeadlineError — classified as a transport failure, so the task
// fails over to the next live worker. Zero disables the watchdog.
func (m *Master) SetTaskDeadline(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("remote: task deadline must be non-negative, got %v", d))
	}
	m.taskDeadline = d
}

// callWorker issues one worker RPC, enforcing the task deadline when
// one is configured. net/rpc has no native call timeout, so the
// watchdog races the asynchronous call against a timer; on expiry the
// reply (if it ever arrives) is discarded by the rpc client.
func (m *Master) callWorker(w liveWorker, method string, args, reply any) error {
	if m.taskDeadline <= 0 {
		return w.client.Call(method, args, reply)
	}
	call := w.client.Go(method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(m.taskDeadline)
	defer timer.Stop()
	select {
	case c := <-call.Done:
		return c.Error
	case <-timer.C:
		err := &TaskDeadlineError{Worker: w.id, Method: method, Deadline: m.taskDeadline}
		m.log.Addf(m.clock.Now(), trace.TaskDeadlineExceeded, -1, -1, "%v", err)
		return err
	}
}

// appendShuffle journals one freshly merged segment's map output.
// Called with m.mu held (the journal has its own lock; holding m.mu
// across the append keeps this record ordered against the job's later
// result record).
func (m *Master) appendShuffle(id scheduler.JobID, segment int, parts [][]mapreduce.KV) error {
	if m.journal == nil {
		return nil
	}
	return m.journal.AppendRecord(journal.KindShuffleCommitted, journal.ShuffleCommittedRecord{
		Job:     id,
		Segment: segment,
		Parts:   parts,
	})
}

// appendResult journals a completed job's reduce output, as records:
// the journal's format does not know frames. Called with m.mu held.
func (m *Master) appendResult(id scheduler.JobID, frames [][]byte) error {
	if m.journal == nil {
		return nil
	}
	return m.journal.AppendRecord(journal.KindJobResult, journal.JobResultRecord{Job: id, Output: mergeFrames(frames)})
}

// RestoreShuffle re-installs one journaled segment's map output for a
// job — the recovery path's counterpart of ExecRound's merge section.
// The job must already be registered (RegisterJob). Call before the
// engine starts.
func (m *Master) RestoreShuffle(id scheduler.JobID, segment int, parts [][]mapreduce.KV) error {
	ref, ok := m.jobRef(id)
	if !ok {
		return fmt.Errorf("remote: restoring shuffle for unregistered job %d", id)
	}
	m.ensureJob(id, ref)
	m.mu.Lock()
	defer m.mu.Unlock()
	dst := m.partitions[id]
	if len(parts) != len(dst) {
		return fmt.Errorf("remote: job %d shuffle record has %d partitions, job declares %d", id, len(parts), len(dst))
	}
	segs := m.mergedSegs[id]
	if segs == nil {
		segs = make(map[int]bool)
		m.mergedSegs[id] = segs
	}
	if segs[segment] {
		return fmt.Errorf("remote: job %d segment %d restored twice", id, segment)
	}
	segs[segment] = true
	for p, kvs := range parts {
		dst[p] = append(dst[p], kvs...)
	}
	return nil
}

// RestoreResult re-installs a completed job's journaled output so the
// admission API can serve it after a restart.
func (m *Master) RestoreResult(id scheduler.JobID, output []mapreduce.KV) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[id] = [][]byte{mapreduce.AppendFrame(nil, output)}
	delete(m.partitions, id)
	delete(m.mergedSegs, id)
}

// JobOutput returns one completed job's merged output, if present.
// Implements status.ResultSource.
func (m *Master) JobOutput(id scheduler.JobID) ([]mapreduce.KV, bool) {
	m.mu.Lock()
	frames, ok := m.results[id]
	m.mu.Unlock()
	return mergeFrames(frames), ok
}
