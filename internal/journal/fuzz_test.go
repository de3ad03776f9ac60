package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"s3sched/internal/mapreduce"
)

// FuzzJournalReplay feeds arbitrary bytes — seeded with valid logs,
// truncations, bit flips and duplicated tails — through Replay and
// Open. The invariants: neither ever panics; Replay's only non-nil
// error on arbitrary input is a typed *CorruptError; and Open always
// repairs the file to a cleanly appendable state.
func FuzzJournalReplay(f *testing.F) {
	// Seed: a valid four-record journal and mutations of it.
	valid := func() []byte {
		dir, err := os.MkdirTemp("", "seed")
		if err != nil {
			f.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "j.wal")
		j, _, err := Open(path, Options{Sync: SyncNever})
		if err != nil {
			f.Fatal(err)
		}
		if err := j.AppendRecord(KindJobAdmitted, JobAdmittedRecord{ID: 1, Factory: "wordcount", NumReduce: 2}); err != nil {
			f.Fatal(err)
		}
		// Both shapes of job-result: receipts, and the output itself.
		if err := j.AppendRecord(KindJobResult, JobResultRecord{Job: 1, File: "corpus", Parts: []ResultPart{{Records: 3, Bytes: 17, Sum: 0x1badb002, Holder: "w0"}}}); err != nil {
			f.Fatal(err)
		}
		if err := j.AppendRecord(KindJobResult, JobResultRecord{Job: 1, Output: []mapreduce.KV{{Key: "k", Value: "v"}}}); err != nil {
			f.Fatal(err)
		}
		if err := j.AppendRecord(KindJobDone, JobEndRecord{Job: 1, At: 2}); err != nil {
			f.Fatal(err)
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                             // torn tail
	f.Add(append(append([]byte{}, valid...), valid[8:]...)) // duplicated tail
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(make([]byte, 64)) // zero-filled
	f.Add(magic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := Replay(bytes.NewReader(data))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Replay returned a non-CorruptError: %v", err)
			}
		}
		// Every surfaced entry decoded from an intact frame; folding
		// them must not panic either (unknown kinds are skipped, known
		// kinds decoded from checksummed JSON).
		_, _ = ReduceEntries(entries)

		// Open on the same bytes must repair to an appendable file.
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open after repair path: %v", err)
		}
		if len(rep.Entries) != len(entries) {
			t.Fatalf("Open replayed %d entries, Replay %d", len(rep.Entries), len(entries))
		}
		if err := j.AppendRecord(KindRecovered, RecoveredRecord{}); err != nil {
			t.Fatalf("append to repaired journal: %v", err)
		}
		j.Close()
		j2, rep2, err := Open(path, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("reopen repaired journal: %v", err)
		}
		if rep2.Corruption != nil {
			t.Fatalf("repaired journal still corrupt: %v", rep2.Corruption)
		}
		if len(rep2.Entries) != len(entries)+1 {
			t.Fatalf("repaired journal replayed %d entries, want %d", len(rep2.Entries), len(entries)+1)
		}
		j2.Close()
	})
}
