package mapreduce_test

import (
	"fmt"
	"strconv"
	"strings"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// ExampleRunJob runs a wordcount job over a two-block file with the
// sequential reference: every block mapped, combined and partitioned,
// then every partition reduced.
func ExampleRunJob() {
	store := dfs.MustStore(2, 1)
	blocks := [][]byte{
		[]byte("ant bee ant"),
		[]byte("bee cat bee"),
	}
	_, _ = store.AddFile("input", int64(len(blocks[0])), blocks)

	mapper := mapreduce.MapperFunc(func(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
		for _, w := range strings.Fields(string(data)) {
			emit(mapreduce.KV{Key: w, Value: "1"})
		}
		return nil
	})
	sum := mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emit) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			total += n
		}
		emit(mapreduce.KV{Key: key, Value: strconv.Itoa(total)})
		return nil
	})

	res, _ := mapreduce.RunJob(store, mapreduce.JobSpec{Name: "count-all", File: "input", Mapper: mapper, Reducer: sum, NumReduce: 2})
	fmt.Println(res.Name, res.Output)
	fmt.Println("map tasks:", res.Counters.Get(mapreduce.CounterMapTasks), "reduce tasks:", res.Counters.Get(mapreduce.CounterReduceTasks))
	// Output:
	// count-all [{ant 2} {bee 3} {cat 1}]
	// map tasks: 2 reduce tasks: 2
}
