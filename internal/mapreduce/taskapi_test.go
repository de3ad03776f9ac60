package mapreduce

import (
	"fmt"
	"testing"

	"s3sched/internal/dfs"
)

func TestTaskAPIInPackage(t *testing.T) {
	parts, err := MapBlockForJob(dfs.BlockID{File: "x"}, []byte("a b a"), wordCountMapper{}, sumReducer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 2 { // combiner folded "a a" -> one record + "b"
		t.Errorf("records = %d, want 2", total)
	}
	merged := MergeSorted(parts)
	if len(merged) != 2 || merged[0].Key != "a" {
		t.Errorf("merged = %v", merged)
	}
	out, err := ReducePartition(merged, sumReducer{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != fmt.Sprint([]KV{{Key: "a", Value: "2"}, {Key: "b", Value: "1"}}) {
		t.Errorf("reduced = %v", out)
	}
	// Error paths.
	if _, err := MapBlockForJob(dfs.BlockID{}, nil, nil, nil, 1); err == nil {
		t.Error("nil mapper should fail")
	}
	if _, err := MapBlockForJob(dfs.BlockID{}, nil, wordCountMapper{}, nil, 0); err == nil {
		t.Error("zero width should fail")
	}
	bad := ReducerFunc(func(string, []string, Emit) error { return fmt.Errorf("boom") })
	if _, err := ReducePartition([]KV{{Key: "a", Value: "1"}}, bad); err == nil {
		t.Error("reducer error should propagate")
	}
	if _, err := MapBlockForJob(dfs.BlockID{}, []byte("a a"), wordCountMapper{}, bad, 1); err == nil {
		t.Error("combiner error should propagate")
	}
}
