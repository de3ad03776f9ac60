package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"s3sched/internal/dfs"
)

// inputStore builds a store holding one file, "input", of the blocks.
func inputStore(t *testing.T, blocks [][]byte) *dfs.Store {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := store.AddFile("input", int64(len(blocks[0])), blocks); err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	return store
}

func textBlocks(lines ...string) [][]byte {
	// Pad every block to the length of the longest so block sizes match.
	max := 0
	for _, l := range lines {
		if len(l) > max {
			max = len(l)
		}
	}
	out := make([][]byte, len(lines))
	for i, l := range lines {
		b := make([]byte, max)
		copy(b, l)
		for j := len(l); j < max; j++ {
			b[j] = ' '
		}
		out[i] = b
	}
	return out
}

// wordCountMapper emits (word, "1") for every whitespace-separated word.
type wordCountMapper struct{}

func (wordCountMapper) Map(_ dfs.BlockID, data []byte, emit Emit) error {
	for _, w := range strings.Fields(string(data)) {
		emit(KV{Key: w, Value: "1"})
	}
	return nil
}

func (wordCountMapper) CountInputRecords(data []byte) int64 {
	return int64(len(strings.Fields(string(data))))
}

// sumReducer sums integer values per key.
type sumReducer struct{}

func (sumReducer) Reduce(key string, values []string, emit Emit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	emit(KV{Key: key, Value: strconv.Itoa(total)})
	return nil
}

func wordCountSpec(name string) JobSpec {
	return JobSpec{
		Name:      name,
		File:      "input",
		Mapper:    wordCountMapper{},
		Reducer:   sumReducer{},
		NumReduce: 3,
	}
}

// mapBlocks runs job's map task over blocks of store's "input", in order.
func mapBlocks(t *testing.T, store *dfs.Store, job *Running, blocks []dfs.BlockID) error {
	t.Helper()
	for _, b := range blocks {
		data, err := store.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.MapBlock(b, data); err != nil {
			return err
		}
	}
	return nil
}

// inputBlocks lists the blocks of store's "input".
func inputBlocks(t *testing.T, store *dfs.Store) []dfs.BlockID {
	t.Helper()
	f, err := store.File("input")
	if err != nil {
		t.Fatal(err)
	}
	return f.Blocks()
}

func TestRunJobWordCount(t *testing.T) {
	store := inputStore(t, textBlocks(
		"a b a",
		"b c b",
		"c c a",
	))
	res, err := RunJob(store, wordCountSpec("wc"))
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	got := outputMap(res)
	want := map[string]string{"a": "3", "b": "3", "c": "3"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("output has %d keys, want %d: %v", len(got), len(want), got)
	}
	// Output must be sorted.
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatalf("output not sorted: %v", res.Output)
		}
	}
}

func TestRunJobCounters(t *testing.T) {
	res, err := RunJob(inputStore(t, textBlocks("a b", "c d")), wordCountSpec("wc"))
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	c := res.Counters
	if got := c.Get(CounterMapTasks); got != 2 {
		t.Errorf("map tasks = %d, want 2", got)
	}
	if got := c.Get(CounterMapInputRecords); got != 4 {
		t.Errorf("map input records = %d, want 4", got)
	}
	if got := c.Get(CounterMapOutputRecords); got != 4 {
		t.Errorf("map output records = %d, want 4", got)
	}
	if got := c.Get(CounterReduceOutRecords); got != 4 {
		t.Errorf("reduce output records = %d, want 4 distinct words", got)
	}
	if got := c.Get(CounterReduceTasks); got != 3 {
		t.Errorf("reduce tasks = %d, want 3", got)
	}
	if c.Get(CounterMapInputBytes) == 0 || c.Get(CounterMapOutputBytes) == 0 {
		t.Error("byte counters should be nonzero")
	}
}

// Merged jobs share a scan: each block is read once, and its one merged
// map task feeds every job of the batch, each of which then outputs what
// it does alone.
func TestMergedJobsShareScan(t *testing.T) {
	store := inputStore(t, textBlocks("a b a", "b c b", "c c a", "a a a"))
	specs := []JobSpec{wordCountSpec("wc1"), wordCountSpec("wc2"), wordCountSpec("wc3")}
	jobs := make([]MapJob, len(specs))
	shuffled := make([][][]KV, len(specs)) // per job, per partition
	for j, spec := range specs {
		jobs[j] = MapJob{spec.Mapper, spec.Combiner, spec.reduceWidth()}
		shuffled[j] = make([][]KV, spec.reduceWidth())
	}
	for _, b := range inputBlocks(t, store) {
		data, err := store.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parts, errs := mergedTask(b, data, jobs)
		for j := range jobs {
			if errs[j] != nil {
				t.Fatalf("job %d: %v", j, errs[j])
			}
			for p, kvs := range parts[j] {
				shuffled[j][p] = append(shuffled[j][p], kvs...)
			}
		}
	}
	if st := store.Stats(); st.BlockReads != 4 {
		t.Errorf("block reads = %d, want 4 (one per block for the whole batch)", st.BlockReads)
	}
	for j, spec := range specs {
		outs := make([][]KV, len(shuffled[j]))
		for p, records := range shuffled[j] {
			var err error
			if outs[p], err = ReduceInPlace(records, spec.Reducer); err != nil {
				t.Fatal(err)
			}
		}
		alone, err := RunJob(store, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := MergeSorted(outs); !reflect.DeepEqual(got, alone.Output) {
			t.Errorf("%s: merged %v, alone %v", spec.Name, got, alone.Output)
		}
	}
}

// A job run alone scans every block of its file: three jobs, three scans.
func TestUnmergedJobsScanRepeatedly(t *testing.T) {
	store := inputStore(t, textBlocks("a", "b", "c", "d"))
	for i := 0; i < 3; i++ {
		if _, err := RunJob(store, wordCountSpec(fmt.Sprintf("wc%d", i))); err != nil {
			t.Fatalf("RunJob: %v", err)
		}
	}
	if st := store.Stats(); st.BlockReads != 12 {
		t.Errorf("block reads = %d, want 12 (no sharing)", st.BlockReads)
	}
}

func TestMultiRoundSubJobExecution(t *testing.T) {
	// S^3-style: map a job in two rounds over segment halves, then
	// finish. The result must equal one-shot execution.
	store := inputStore(t, textBlocks("a b a", "b c b", "c c a", "a a a"))
	oneShot, err := RunJob(store, wordCountSpec("ref"))
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}

	job, err := NewRunning(wordCountSpec("split"))
	if err != nil {
		t.Fatalf("NewRunning: %v", err)
	}
	all := inputBlocks(t, store)
	if err := mapBlocks(t, store, job, all[2:]); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if err := mapBlocks(t, store, job, all[:2]); err != nil {
		t.Fatalf("round 2: %v", err)
	}
	res, err := job.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if fmt.Sprint(res.Output) != fmt.Sprint(oneShot.Output) {
		t.Errorf("split execution output %v != one-shot %v", res.Output, oneShot.Output)
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	store := inputStore(t, textBlocks("a a a a a a a a", "a a a a a a a a"))
	res1, err := RunJob(store, wordCountSpec("plain"))
	if err != nil {
		t.Fatal(err)
	}
	withComb := wordCountSpec("comb")
	withComb.Combiner = sumReducer{}
	res2, err := RunJob(store, withComb)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res1.Output) != fmt.Sprint(res2.Output) {
		t.Errorf("combiner changed results: %v vs %v", res1.Output, res2.Output)
	}
	// Two blocks of one distinct word -> 2 combined records total.
	if got := res2.Counters.Get(CounterCombineOutRecords); got != 2 {
		t.Errorf("combine output records = %d, want 2", got)
	}
	r1 := res1.Counters.Get(CounterReduceInputRecords)
	r2 := res2.Counters.Get(CounterReduceInputRecords)
	if r2 >= r1 {
		t.Errorf("combiner did not shrink reduce input: %d vs %d", r2, r1)
	}
}

func TestMapOnlyJob(t *testing.T) {
	spec := JobSpec{Name: "ident", File: "input", Mapper: wordCountMapper{}}
	res, err := RunJob(inputStore(t, textBlocks("b a", "d c")), spec)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if len(res.Output) != 4 {
		t.Fatalf("output = %v, want 4 records", res.Output)
	}
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatalf("map-only output not sorted: %v", res.Output)
		}
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	spec := JobSpec{
		Name: "bad", File: "input",
		Mapper: MapperFunc(func(dfs.BlockID, []byte, Emit) error { return boom }),
	}
	if _, err := RunJob(inputStore(t, textBlocks("a", "b")), spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	boom := errors.New("reduce-boom")
	spec := wordCountSpec("bad")
	spec.Reducer = ReducerFunc(func(string, []string, Emit) error { return boom })
	if _, err := RunJob(inputStore(t, textBlocks("a", "b")), spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestCombinerErrorPropagates(t *testing.T) {
	boom := errors.New("combine-boom")
	spec := wordCountSpec("bad")
	spec.Combiner = ReducerFunc(func(string, []string, Emit) error { return boom })
	if _, err := RunJob(inputStore(t, textBlocks("a", "b")), spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []JobSpec{
		{},
		{Name: "x"},
		{Name: "x", File: "f"},
		{Name: "x", File: "f", Mapper: wordCountMapper{}, NumReduce: -1},
	}
	for i, spec := range cases {
		if _, err := NewRunning(spec); err == nil {
			t.Errorf("case %d: NewRunning(%+v) should fail", i, spec)
		}
	}
	if _, err := RunJob(inputStore(t, textBlocks("a")), JobSpec{Name: "x", File: "missing", Mapper: wordCountMapper{}}); err == nil {
		t.Error("RunJob over a file the store lacks should fail")
	}
}

func TestDoubleFinishPanics(t *testing.T) {
	store := inputStore(t, textBlocks("a"))
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapBlocks(t, store, job, inputBlocks(t, store)); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Finish(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Finish should panic")
		}
	}()
	_, _ = job.Finish()
}

func TestMapAfterFinishFails(t *testing.T) {
	store := inputStore(t, textBlocks("a", "b"))
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := inputBlocks(t, store)
	if err := mapBlocks(t, store, job, blocks[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := mapBlocks(t, store, job, blocks[1:]); err == nil {
		t.Error("MapBlock after Finish should fail")
	}
}

// outputMap indexes a result's output by key.
func outputMap(res *Result) map[string]string {
	out := make(map[string]string, len(res.Output))
	for _, kv := range res.Output {
		out[kv.Key] = kv.Value
	}
	return out
}
