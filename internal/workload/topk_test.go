package workload

import (
	"reflect"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

func TestTopKMapperEmitsRankableCandidates(t *testing.T) {
	var got []mapreduce.KV
	data := []byte("the\t42\nfox\t7\nzebra\t42\n")
	if err := (TopKMapper{}).Map(dfs.BlockID{}, data, func(kv mapreduce.KV) {
		got = append(got, kv)
	}); err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KV{
		{Key: "top", Value: "42 the"},
		{Key: "top", Value: "7 fox"},
		{Key: "top", Value: "42 zebra"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Map emitted %v, want %v", got, want)
	}
}

func TestTopKMapperRejectsNonIntegerCounts(t *testing.T) {
	err := (TopKMapper{}).Map(dfs.BlockID{}, []byte("word\tnotanumber\n"), func(mapreduce.KV) {})
	if err == nil || !strings.Contains(err.Error(), "count is not an integer") {
		t.Fatalf("err = %v, want count parse failure (derived files are machine-written)", err)
	}
}

func TestTopKReducerRanksAndTruncates(t *testing.T) {
	values := []string{"7 fox", "42 zebra", "42 the", "3 dog", "1 the"}
	var got []mapreduce.KV
	if err := (TopKReducer{K: 3}).Reduce("top", values, func(kv mapreduce.KV) {
		got = append(got, kv)
	}); err != nil {
		t.Fatal(err)
	}
	// "the" re-sums to 43 across partitions; ties break by word.
	want := []mapreduce.KV{
		{Key: "the", Value: "43"},
		{Key: "zebra", Value: "42"},
		{Key: "fox", Value: "7"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reduce emitted %v, want %v", got, want)
	}
}

func TestTopKReducerErrors(t *testing.T) {
	if err := (TopKReducer{}).Reduce("top", nil, func(mapreduce.KV) {}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if err := (TopKReducer{K: 1}).Reduce("top", []string{"noseparator"}, func(mapreduce.KV) {}); err == nil {
		t.Fatal("value without separator accepted")
	}
	if err := (TopKReducer{K: 1}).Reduce("top", []string{"x word"}, func(mapreduce.KV) {}); err == nil {
		t.Fatal("non-integer count accepted")
	}
	// K larger than the candidate set emits everything.
	var got []mapreduce.KV
	if err := (TopKReducer{K: 10}).Reduce("top", []string{"5 only"}, func(kv mapreduce.KV) {
		got = append(got, kv)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "only" {
		t.Fatalf("Reduce = %v", got)
	}
}

// The wordcount → top-k chain end to end at the mapreduce layer: a
// first stage's StoreResult output, fed through TopKMapper/TopKReducer,
// yields the k most frequent words.
func TestTopKOverStoredWordcountOutput(t *testing.T) {
	res := &mapreduce.Result{Output: []mapreduce.KV{
		{Key: "the", Value: "9"},
		{Key: "then", Value: "4"},
		{Key: "this", Value: "6"},
		{Key: "thus", Value: "2"},
	}}
	store := dfs.MustStore(2, 1)
	file, err := mapreduce.StoreResult(store, "job-1.out", 64, res)
	if err != nil {
		t.Fatal(err)
	}
	var candidates []mapreduce.KV
	for i := 0; i < file.NumBlocks; i++ {
		data, err := store.ReadBlock(dfs.BlockID{File: "job-1.out", Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := (TopKMapper{}).Map(dfs.BlockID{File: "job-1.out", Index: i}, data, func(kv mapreduce.KV) {
			candidates = append(candidates, kv)
		}); err != nil {
			t.Fatal(err)
		}
	}
	values := make([]string, len(candidates))
	for i, kv := range candidates {
		values[i] = kv.Value
	}
	var got []mapreduce.KV
	if err := (TopKReducer{K: 2}).Reduce("top", values, func(kv mapreduce.KV) {
		got = append(got, kv)
	}); err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KV{{Key: "the", Value: "9"}, {Key: "this", Value: "6"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("top-2 = %v, want %v", got, want)
	}
}

func TestValidateAndSummaryDAG(t *testing.T) {
	wf := &File{
		Header: FileHeader{Kind: KindHeader, Version: 3, Name: "chain", Nodes: 2, SlotsPerNode: 2, Replicas: 1},
		Files: []FileSpec{
			{Kind: KindFile, Name: "corpus", Content: ContentText, Blocks: 4, BlockBytes: 1 << 10, SegmentBlocks: 2},
		},
		Jobs: []FileJob{
			{Kind: KindJob, ID: 1, File: "corpus", Factory: FactoryWordCount, Param: "t"},
			{Kind: KindJob, ID: 2, File: DerivedFileName(1), Factory: FactoryTopK, Param: "3", DependsOn: []scheduler.JobID{1}},
		},
	}
	if err := wf.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	multi := &File{
		Header: FileHeader{Kind: KindHeader, Version: 3, Name: "multi", Nodes: 1, SlotsPerNode: 1, Replicas: 1},
		Files: []FileSpec{
			{Kind: KindFile, Name: "a", Content: ContentText, Blocks: 2, BlockBytes: 1 << 20, SegmentBlocks: 1},
			{Kind: KindFile, Name: "b", Content: ContentText, Blocks: 2, BlockBytes: 3 << 9, SegmentBlocks: 1},
		},
		Jobs: []FileJob{
			{Kind: KindJob, ID: 1, File: "a", Factory: FactoryWordCount, Param: "t"},
		},
	}
	if err := multi.Validate(); err != nil {
		t.Fatalf("Validate multi: %v", err)
	}

	bad := *wf
	bad.Header.Version = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("v1 workload with dependsOn validated")
	}
}
