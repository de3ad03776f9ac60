package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

func openT(t *testing.T, path string, opts Options) (*Journal, *Replayed) {
	t.Helper()
	j, rep, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j, rep
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, rep := openT(t, path, Options{})
	if len(rep.Entries) != 0 || rep.Corruption != nil {
		t.Fatalf("fresh journal replayed %v / %v", rep.Entries, rep.Corruption)
	}
	records := []JobAdmittedRecord{
		{ID: 1, Name: "wc-th", Factory: "wordcount", Param: "th", NumReduce: 2},
		{ID: 2, Name: "sel", Factory: "selection", Param: "42", NumReduce: 4},
	}
	for _, r := range records {
		if err := j.AppendRecord(KindJobAdmitted, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendRecord(KindJobDone, JobEndRecord{Job: 1, At: 12.5}); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Appends != 3 || st.Bytes <= 8 {
		t.Fatalf("stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Kind: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}

	// Reopen: every record comes back in order, and appends continue.
	j2, rep2 := openT(t, path, Options{})
	defer j2.Close()
	if rep2.Corruption != nil {
		t.Fatalf("clean file reported corruption: %v", rep2.Corruption)
	}
	kinds := []string{KindJobAdmitted, KindJobAdmitted, KindJobDone}
	if len(rep2.Entries) != len(kinds) {
		t.Fatalf("replayed %d entries, want %d", len(rep2.Entries), len(kinds))
	}
	for i, e := range rep2.Entries {
		if e.Kind != kinds[i] {
			t.Fatalf("entry %d kind = %s, want %s", i, e.Kind, kinds[i])
		}
	}
	var rec JobAdmittedRecord
	if err := json.Unmarshal(rep2.Entries[1].Data, &rec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, records[1]) {
		t.Fatalf("entry 1 = %+v, want %+v", rec, records[1])
	}
	if err := j2.AppendRecord(KindJobFailed, JobEndRecord{Job: 2, At: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path, Options{})
	for i := 1; i <= 3; i++ {
		if err := j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: scheduler.JobID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Tear the last record: keep all but its final 3 bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := openT(t, path, Options{})
	if len(rep.Entries) != 2 {
		t.Fatalf("replayed %d entries after tear, want 2", len(rep.Entries))
	}
	if rep.Corruption == nil {
		t.Fatal("torn tail not reported")
	}
	// The repaired file appends cleanly and replays 3 records next time.
	if err := j2.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 9}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rep3 := openT(t, path, Options{})
	if len(rep3.Entries) != 3 || rep3.Corruption != nil {
		t.Fatalf("after repair+append: %d entries, corruption %v", len(rep3.Entries), rep3.Corruption)
	}
}

func TestReplayZeroFilledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path, Options{})
	if err := j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, _ := os.ReadFile(path)
	entries, rerr := Replay(bytes.NewReader(data))
	var ce *CorruptError
	if !errors.As(rerr, &ce) {
		t.Fatalf("zero tail error = %v, want *CorruptError", rerr)
	}
	if len(entries) != 1 {
		t.Fatalf("replayed %d entries, want 1", len(entries))
	}
}

func TestReplayChecksumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path, Options{})
	if err := j.AppendRecord(KindJobDone, JobEndRecord{Job: 7}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x40 // flip a payload bit
	_, rerr := Replay(bytes.NewReader(data))
	var ce *CorruptError
	if !errors.As(rerr, &ce) || ce.Reason != "checksum mismatch" {
		t.Fatalf("bit flip error = %v, want checksum mismatch", rerr)
	}
}

func TestReplayRejectsWrongHeader(t *testing.T) {
	_, err := Replay(bytes.NewReader([]byte("definitely not a journal")))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("wrong header error = %v", err)
	}
}

func TestReplayImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], maxRecord+1)
	buf.Write(frame[:])
	_, err := Replay(&buf)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("oversized length error = %v", err)
	}
}

func TestOnAppendHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var last Stats
	j, _ := openT(t, path, Options{Sync: SyncNever, OnAppend: func(s Stats) { last = s }})
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.AppendRecord(KindRecovered, RecoveredRecord{}); err != nil {
			t.Fatal(err)
		}
	}
	if last.Appends != 3 || last.Bytes != j.Stats().Bytes {
		t.Fatalf("hook saw %+v, stats %+v", last, j.Stats())
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always → %v, %v", p, err)
	}
	if p, err := ParseSyncPolicy("never"); err != nil || p != SyncNever {
		t.Fatalf("never → %v, %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestReduceEntriesFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 1, Factory: "wordcount", NumReduce: 2, Meta: scheduler.JobMeta{ID: 1, File: "corpus"}}))
	must(j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 2, Factory: "wordcount", NumReduce: 2, Meta: scheduler.JobMeta{ID: 2, File: "corpus"}}))
	must(j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 3, Factory: "selection", NumReduce: 2, Meta: scheduler.JobMeta{ID: 3, File: "lineitem"}}))
	must(j.AppendRecord(KindMasterEpoch, MasterEpochRecord{Epoch: 41}))
	// What a journal written before the shuffle left the master holds: the
	// fold reads these and keeps nothing of them — not even an error for a
	// payload that is no shuffle record at all.
	must(j.AppendRecord(KindShuffleCommitted, ShuffleCommittedRecord{
		Job: 1, Segment: 0, Parts: [][]mapreduce.KV{{{Key: "a", Value: "1"}}, nil},
	}))
	must(j.Append(Entry{Kind: KindShuffleCommitted, Data: json.RawMessage(`"not a record"`)}))
	must(j.AppendRecord(KindShuffleCommitted, ShuffleCommittedRecord{
		Job: 2, Segment: 0, Parts: [][]mapreduce.KV{nil, {{Key: "b", Value: "2"}}},
	}))
	snap := &scheduler.Snapshot{
		Scheme: "s3-multifile",
		Queues: []scheduler.QueueSnapshot{{
			File: "corpus", Segments: 4, Cursor: 1,
			Jobs: []scheduler.JobSnapshot{{Meta: scheduler.JobMeta{ID: 2, File: "corpus"}, Remaining: 3, SubmittedAt: 1.25}},
		}},
	}
	must(j.AppendRecord(KindRoundCommitted, RoundCommittedRecord{Segment: 0, Jobs: []scheduler.JobID{1, 2}, Snapshot: snap}))
	must(j.AppendRecord(KindJobResult, JobResultRecord{Job: 1, Output: []mapreduce.KV{{Key: "a", Value: "1"}}}))
	must(j.AppendRecord(KindJobDone, JobEndRecord{Job: 1, At: 3}))
	must(j.Append(Entry{Kind: "future-kind", Data: json.RawMessage(`{"x":1}`)}))
	must(j.AppendRecord(KindRecovered, RecoveredRecord{Resumed: 1}))
	must(j.AppendRecord(KindMasterEpoch, MasterEpochRecord{Epoch: 99})) // the first one stands
	j.Close()

	_, rep := openT(t, path, Options{})
	st, err := ReduceEntries(rep.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxID != 3 || st.Recoveries != 1 || st.Epoch != 41 {
		t.Fatalf("maxID %d recoveries %d epoch %d", st.MaxID, st.Recoveries, st.Epoch)
	}
	if len(st.Done) != 1 || len(st.Results[1].Output) != 1 {
		t.Fatalf("done %v results %v", st.Done, st.Results)
	}
	if len(st.Order) != 3 || len(st.Failed) != 0 {
		t.Fatalf("order %v failed %v: jobs 2 and 3 are still pending", st.Order, st.Failed)
	}
	js, two := st.InSnapshot(2)
	_, three := st.InSnapshot(3)
	_, one := st.InSnapshot(1)
	if !two || three || one || js.SubmittedAt != 1.25 {
		t.Fatalf("InSnapshot: 2=%v (%+v) 3=%v 1=%v", two, js, three, one)
	}
	if st.Snapshot == nil || st.Snapshot.Queues[0].Cursor != 1 {
		t.Fatalf("snapshot = %+v", st.Snapshot)
	}
}

func TestReduceEntriesCheckpointWins(t *testing.T) {
	mk := func(cursor int) *scheduler.Snapshot {
		return &scheduler.Snapshot{Scheme: "s3", Queues: []scheduler.QueueSnapshot{{File: "corpus", Segments: 4, Cursor: cursor}}}
	}
	e := func(kind string, payload any) Entry {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return Entry{Kind: kind, Data: data}
	}
	st, err := ReduceEntries([]Entry{
		e(KindRoundCommitted, RoundCommittedRecord{Snapshot: mk(1)}),
		e(KindCheckpoint, CheckpointRecord{Snapshot: mk(2), Requeues: 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot.Queues[0].Cursor != 2 || st.Requeues != 5 {
		t.Fatalf("latest snapshot not kept: %+v requeues %d", st.Snapshot, st.Requeues)
	}
}

func TestReduceEntriesDAGRecords(t *testing.T) {
	e := func(kind string, payload any) Entry {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return Entry{Kind: kind, Data: data}
	}
	st, err := ReduceEntries([]Entry{
		e(KindJobAdmitted, JobAdmittedRecord{ID: 1, Factory: "wordcount", Meta: scheduler.JobMeta{ID: 1, File: "corpus"}}),
		e(KindJobAdmitted, JobAdmittedRecord{ID: 2, Factory: "topk", Param: "3",
			Meta: scheduler.JobMeta{ID: 2, File: "job-1.out"}, DependsOn: []scheduler.JobID{1}}),
		// Re-journaled admission (recovery resubmits under the original
		// id): last writer wins, order keeps the first position.
		e(KindJobAdmitted, JobAdmittedRecord{ID: 1, Factory: "wordcount", Param: "th", Meta: scheduler.JobMeta{ID: 1, File: "corpus"}}),
		e(KindJobResult, JobResultRecord{Job: 1, Output: []mapreduce.KV{{Key: "the", Value: "4"}}}),
		e(KindJobDone, JobEndRecord{Job: 1, At: 9}),
		e(KindStageMaterialized, StageMaterializedRecord{Job: 1, File: "job-1.out", BlockSize: 64, Blocks: 1}),
		e(KindJobFailed, JobEndRecord{Job: 2, At: 11}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Order) != 2 || st.Order[0] != 1 || st.Order[1] != 2 {
		t.Fatalf("Order = %v, want [1 2] (re-admission keeps first position)", st.Order)
	}
	if st.Admitted[1].Param != "th" {
		t.Fatalf("re-admission not last-writer-wins: %+v", st.Admitted[1])
	}
	if got := st.Admitted[2].DependsOn; len(got) != 1 || got[0] != 1 {
		t.Fatalf("DependsOn lost in fold: %+v", st.Admitted[2])
	}
	mat, ok := st.Materialized[1]
	if !ok || mat.File != "job-1.out" || mat.BlockSize != 64 || mat.Blocks != 1 {
		t.Fatalf("Materialized[1] = %+v, %v", mat, ok)
	}
	if _, failed := st.Failed[2]; !failed {
		t.Fatalf("Failed = %v", st.Failed)
	}
	if _, done := st.Done[1]; !done {
		t.Fatalf("Done = %v, want job 1 settled too", st.Done)
	}
	if _, ok := st.InSnapshot(1); ok {
		t.Fatal("InSnapshot with no snapshot")
	}
}

// A job-result record has two shapes, and both come back from the file as
// they went in: receipts and holders (what a finished job costs the
// journal now), or the output itself (an older journal, a DAG producer) —
// and of two records for one job the fold keeps the later.
func TestJobResultShapesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path, Options{Sync: SyncNever})
	receipts := JobResultRecord{Job: 1, File: "lineitem", Parts: []ResultPart{
		{Records: 16800, Bytes: 851234, Sum: 0xdeadbeef, Holder: "worker@127.0.0.1:7001"},
		{Records: 0, Bytes: 1, Sum: 0x527d5351, Holder: "worker@127.0.0.1:7002"},
	}}
	inline := JobResultRecord{Job: 2, Output: []mapreduce.KV{{Key: "the", Value: "4"}, {Key: "zebra", Value: ""}}}
	kept := JobResultRecord{Job: 1, File: "lineitem", Output: []mapreduce.KV{{Key: "k", Value: "v"}}}
	for _, rec := range []JobResultRecord{receipts, inline, kept} {
		if err := j.AppendRecord(KindJobResult, rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, rep := openT(t, path, Options{})
	var got []JobResultRecord
	for _, e := range rep.Entries {
		var rec JobResultRecord
		if err := json.Unmarshal(e.Data, &rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, []JobResultRecord{receipts, inline, kept}) {
		t.Fatalf("replayed %+v", got)
	}
	if n := len(rep.Entries[0].Data); n > 256 {
		t.Errorf("a two-partition receipt record is %d bytes, want at most 256", n)
	}
	st, err := ReduceEntries(rep.Entries)
	if err != nil || !reflect.DeepEqual(st.Results[1], kept) || !reflect.DeepEqual(st.Results[2], inline) {
		t.Fatalf("fold kept %+v, %v", st.Results, err)
	}
}

func TestReduceEntriesRejectsCorruptKnownKind(t *testing.T) {
	bad := Entry{Kind: KindStageMaterialized, Data: json.RawMessage(`{"job":`)}
	if _, err := ReduceEntries([]Entry{bad}); err == nil {
		t.Fatal("undecodable known-kind payload accepted")
	}
	for _, kind := range []string{
		KindJobAdmitted, KindMasterEpoch, KindJobResult,
		KindRoundCommitted, KindCheckpoint, KindJobDone, KindJobFailed,
	} {
		if _, err := ReduceEntries([]Entry{{Kind: kind, Data: json.RawMessage(`[`)}}); err == nil {
			t.Fatalf("undecodable %s payload accepted", kind)
		}
	}
}
