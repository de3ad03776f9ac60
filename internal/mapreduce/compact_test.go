package mapreduce

import (
	"fmt"
	"testing"
)

func TestCompactShrinksIntermediateState(t *testing.T) {
	blocks := textBlocks(
		"a a a a b b", "a a b b b b", "a b a b a b", "b b b a a a",
	)
	store := inputStore(t, blocks)

	// Reference without compaction.
	ref, err := RunJob(store, wordCountSpec("ref"))
	if err != nil {
		t.Fatal(err)
	}

	job, err := NewRunning(wordCountSpec("compacted"))
	if err != nil {
		t.Fatal(err)
	}
	all := inputBlocks(t, store)
	// Two rounds with compaction after each (the §V-G pattern).
	if err := mapBlocks(t, store, job, all[:2]); err != nil {
		t.Fatal(err)
	}
	before := intermediateRecords(job)
	if err := job.Compact(sumReducer{}); err != nil {
		t.Fatal(err)
	}
	after := intermediateRecords(job)
	if after >= before {
		t.Errorf("compaction did not shrink state: %d -> %d", before, after)
	}
	// Exactly the distinct words (2) remain after compaction.
	if after != 2 {
		t.Errorf("records after compaction = %d, want 2", after)
	}
	if err := mapBlocks(t, store, job, all[2:]); err != nil {
		t.Fatal(err)
	}
	if err := job.Compact(sumReducer{}); err != nil {
		t.Fatal(err)
	}
	res, err := job.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Output) != fmt.Sprint(ref.Output) {
		t.Errorf("compacted output %v != reference %v", res.Output, ref.Output)
	}
}

func TestCompactErrors(t *testing.T) {
	store := inputStore(t, textBlocks("a"))
	job, err := NewRunning(wordCountSpec("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Compact(nil); err == nil {
		t.Error("nil combiner should fail")
	}
	if err := mapBlocks(t, store, job, inputBlocks(t, store)); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := job.Compact(sumReducer{}); err == nil {
		t.Error("compact after finish should fail")
	}
}

func TestCompactEmptyJobIsNoop(t *testing.T) {
	job, err := NewRunning(wordCountSpec("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Compact(sumReducer{}); err != nil {
		t.Fatalf("compact on empty job: %v", err)
	}
	if intermediateRecords(job) != 0 {
		t.Error("empty job should stay empty")
	}
}

// intermediateRecords is how many shuffle records r holds.
func intermediateRecords(r *Running) (total int) {
	for _, p := range r.partitions {
		total += len(p)
	}
	return total
}
