package mapreduce_test

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// BenchmarkReduceInPlace is the reduce of one sel-shuffle partition: the
// records a 10 % selection (MaxQuantity 5) keeps of 32 lineitem blocks of
// 512 KB, every other one, in map order. A selection has no reducer, so
// the reduce is the sort; each op also copies the partition back in.
func BenchmarkReduceInPlace(b *testing.B) {
	var selected []mapreduce.KV
	gen := workload.NewLineitemGen(1)
	for i := 0; i < 32; i++ {
		err := workload.SelectionMapper{MaxQuantity: 5}.Map(dfs.BlockID{}, gen.Block(i, 512<<10), func(kv mapreduce.KV) {
			selected = append(selected, kv)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var partition []mapreduce.KV
	for i := 0; i < len(selected); i += 2 {
		partition = append(partition, selected[i])
	}
	work := make([]mapreduce.KV, len(partition))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, partition)
		if _, err := mapreduce.ReduceInPlace(work, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(partition)), "records")
}
