package workload

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// The map-side counters on a fixed corpus, as the sort-based map task
// and the string-level mappers charged them. The byte-level mappers,
// the allocation-free record counters and the grouped combine must
// leave every one of them where it was.
func TestMapCountersPinned(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := AddTextFile(store, "corpus", 4, 8<<10, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := AddLineitemFile(store, "lineitem", 4, 16<<10, 17); err != nil {
		t.Fatal(err)
	}
	names := []string{mapreduce.CounterMapInputRecords, mapreduce.CounterMapOutputRecords,
		mapreduce.CounterMapOutputBytes, mapreduce.CounterCombineOutRecords}
	heavy := WordCountJob("heavy", "corpus", "wh", 2)
	heavy.Mapper, heavy.Combiner = PatternCountMapper{Prefix: "wh", EmitFactor: 3}, nil
	for _, tc := range []struct {
		spec mapreduce.JobSpec
		want [4]int64
	}{
		{WordCountJob("wc", "corpus", "t", 3), [4]int64{8202, 2437, 10045, 61}},
		{heavy, [4]int64{8202, 417, 2487, 0}},
		{mapreduce.JobSpec{Name: "sel", File: "lineitem", Mapper: SelectionMapper{MaxQuantity: 5}}, [4]int64{581, 61, 7187, 0}},
		{mapreduce.JobSpec{Name: "agg", File: "lineitem", Mapper: AggregationMapper{}, Reducer: SumReducer{}, Combiner: SumReducer{}, NumReduce: 2}, [4]int64{581, 581, 2791, 24}},
	} {
		res, err := mapreduce.RunJob(store, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			if got := res.Counters.Get(name); got != tc.want[i] {
				t.Errorf("%s: %s = %d, want %d", tc.spec.Name, name, got, tc.want[i])
			}
		}
	}
}
