package remote

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"slices"

	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/trace"
)

// Results off the master (DESIGN.md §12). A reduced partition's output
// frame stays on the worker that reduced it, keyed (master epoch, job,
// partition) under the stash's epoch rule; the reduce reply is a receipt,
// and receipts plus holders are all the master keeps and journals of a
// finished job. The store is a byte-bounded cache of deterministic reduce
// output: a frame that is gone is recomputed through finishJob's own loop.

// resultBudget bounds the frames one worker keeps, oldest out first.
const resultBudget = 64 << 20

type resultKey struct {
	job  stashJob
	part int
}

type heldResult struct {
	key   resultKey
	frame []byte // immutable once held
}

// resultStore is the result half of a worker's stash, under stash.mu.
type resultStore struct {
	results     map[resultKey]*list.Element // of heldResult
	order       list.List                   // oldest put at the front
	resultBytes int64
	budget      int64
	evictions   int64
	served      int64 // frame bytes given to the master
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putResult keeps a reduced partition's frame, over what an earlier run of
// the task left, and returns its receipt. The oldest frames go until the
// store fits its budget; the newest stays even when it alone does not.
func (s *stash) putResult(key resultKey, frame []byte, records int64) journal.ResultPart {
	rc := journal.ResultPart{Records: records, Bytes: int64(len(frame)), Sum: crc32.Checksum(frame, castagnoli)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.results[key]; old != nil {
		s.resultBytes -= int64(len(s.order.Remove(old).(heldResult).frame))
	}
	s.results[key] = s.order.PushBack(heldResult{key, frame})
	s.resultBytes += int64(len(frame))
	for s.resultBytes > s.budget && s.order.Len() > 1 {
		old := s.order.Remove(s.order.Front()).(heldResult)
		delete(s.results, old.key)
		s.resultBytes -= int64(len(old.frame))
		s.evictions++
	}
	return rc
}

// FetchResult implements the master's read of a reduced partition: the
// frame, or nothing when this worker does not hold it (any more).
func (w *Worker) FetchResult(args *FetchArgs, frame *[]byte) error {
	w.stash.admit(args.Epoch, nil)
	w.stash.mu.Lock()
	if held := w.stash.results[resultKey{stashJob{args.Epoch, args.ID}, args.Partition}]; held != nil {
		*frame = held.Value.(heldResult).frame
		w.stash.served += int64(len(*frame))
	}
	w.stash.mu.Unlock()
	return nil
}

// jobResult is what the master keeps of a finished job's output: its
// job-result record, in either shape. gen counts the recomputes that
// moved the holders.
type jobResult struct {
	journal.JobResultRecord
	gen int
}

// ResultRecomputes implements status.ClusterSource.
func (m *Master) ResultRecomputes() (recomputes, mismatches int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recomputes, m.mismatches
}

// JobOutput implements status.ResultSource: one finished job's merged
// output, sorted by key, from the frames its holders keep. One that is
// gone costs the job one unshared pass (recompute) and a second fetch.
func (m *Master) JobOutput(id scheduler.JobID) ([]mapreduce.KV, error) {
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		res := m.results[id]
		if res == nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: job %d", status.ErrNoOutput, id)
		}
		parts, output, gen := res.Parts, res.Output, res.gen
		m.mu.Unlock()
		if len(parts) == 0 {
			return output, nil
		}
		runs, lost, err := m.fetchOutput(id, parts)
		switch {
		case err == nil && !lost:
			return mapreduce.MergeSorted(runs), nil
		case err == nil && attempt == 0:
			err = m.recompute(id, gen)
		case err == nil:
			err = &allWorkersError{what: fmt.Sprintf("reading job %d", id), err: fmt.Errorf("its output was lost again right after a recompute")}
		}
		if _, outage := err.(*allWorkersError); outage {
			err = fmt.Errorf("%w: %w", status.ErrOutputUnavailable, err)
		}
		if err != nil {
			return nil, err
		}
	}
}

// fetchOutput reads every partition's frame from its holder. lost: one is
// dead, unreachable or no longer has it; a wrong frame is its error.
func (m *Master) fetchOutput(id scheduler.JobID, parts []journal.ResultPart) (runs [][]mapreduce.KV, lost bool, err error) {
	_, live := m.members.live()
	runs = make([][]mapreduce.KV, len(parts))
	for p, part := range parts {
		i := slices.IndexFunc(live, func(w liveWorker) bool { return w.id == part.Holder })
		if i < 0 {
			return nil, true, nil
		}
		frame := new(resultFrame)
		err := m.callWorker(live[i], fetchResult, &FetchArgs{Epoch: m.epoch, ID: id, Partition: p}, frame)
		if isTransportError(err) || err == nil && len(*frame) == 0 { // a frame is a byte at least
			return nil, true, nil
		}
		if err == nil {
			runs[p], err = decodeResult(*frame, part)
		}
		if err != nil {
			return nil, false, fmt.Errorf("remote: job %d partition %d: output kept by worker %s: %w", id, p, part.Holder, err)
		}
	}
	return runs, false, nil
}

// decodeResult decodes a fetched frame, held to every word of its receipt.
func decodeResult(frame []byte, want journal.ResultPart) ([]mapreduce.KV, error) {
	if int64(len(frame)) != want.Bytes {
		return nil, fmt.Errorf("%d bytes, the receipt says %d", len(frame), want.Bytes)
	}
	if sum := crc32.Checksum(frame, castagnoli); sum != want.Sum {
		return nil, fmt.Errorf("CRC-32C %08x, the receipt says %08x", sum, want.Sum)
	}
	run, rest, err := mapreduce.DecodeFrame(string(frame))
	if err == nil && (rest != "" || int64(len(run)) != want.Records) {
		run, err = nil, fmt.Errorf("%d records and %d bytes more, the receipt says %d records", len(run), len(rest), want.Records)
	}
	return run, err
}

// recompute reduces a finished job again because its output, as the
// caller saw it at generation seen, is not where its receipts say: its
// reducers find nothing stashed, so its blocks are mapped again for it
// alone, beside whatever rounds run. The new receipts must equal the
// committed ones; the new holders are adopted and the stash entries
// released again. One runs at a time: a caller that waited for the
// recompute it wanted finds the generation moved on.
func (m *Master) recompute(id scheduler.JobID, seen int) error {
	m.recomputeMu.Lock()
	defer m.recomputeMu.Unlock()
	m.mu.Lock()
	res, ref := m.results[id], m.jobs[id]
	if res.gen != seen {
		m.mu.Unlock()
		return nil
	}
	m.recomputing = id
	m.recomputes++
	m.mu.Unlock()

	m.log.Addf(m.clock.Now(), trace.TaskDispatched, -1, -1, "corr=%s recompute %q over %s: its output is not where its receipts say", m.corr("j%d.recompute", id), ref.Name, res.File)
	ver, live := m.members.live()
	parts, err := m.reduceJob(ver, live, id, ref, &jobShuffle{file: res.File, receipts: make([]PartReceipt, ref.width())}, true)

	m.mu.Lock()
	defer m.mu.Unlock()
	for p := 0; err == nil && p < len(parts); p++ {
		got, want := parts[p], res.Parts[p]
		if got.Holder = want.Holder; got != want {
			m.mismatches++
			err = fmt.Errorf("remote: job %d (%q) partition %d: recomputed as %+v, committed as %+v: a reducer that is not deterministic, or another binary", id, ref.Name, p, got, want)
		}
	}
	if err == nil {
		res.Parts, res.gen = parts, res.gen+1
	}
	m.recomputing = 0
	m.finished = append(m.finished, id) // the workers' delete is idempotent
	return err
}
