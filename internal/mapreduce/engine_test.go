package mapreduce

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"s3sched/internal/dfs"
)

// testCluster builds a store with one file of text blocks and a
// cluster of nodes with one map slot each.
func testCluster(t *testing.T, nodes int, blocks [][]byte) (*Cluster, *dfs.Store) {
	t.Helper()
	store := dfs.MustStore(nodes, 1)
	if _, err := store.AddFile("input", int64(len(blocks[0])), blocks); err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	return MustCluster(store, 1), store
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

func TestRunJobWordCount(t *testing.T) {
	cluster, _ := testCluster(t, 3, textBlocks(
		"a b a",
		"b c b",
		"c c a",
	))
	e := NewEngine(cluster)
	res, err := e.RunJob(wordCountSpec("wc"))
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
	cluster, _ := testCluster(t, 2, textBlocks("a b", "c d"))
	e := NewEngine(cluster)
	res, err := e.RunJob(wordCountSpec("wc"))
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

func TestMergedJobsShareScan(t *testing.T) {
	cluster, store := testCluster(t, 4, textBlocks(
		"a b a", "b c b", "c c a", "a a a",
	))
	e := NewEngine(cluster)
	specs := []JobSpec{wordCountSpec("wc1"), wordCountSpec("wc2"), wordCountSpec("wc3")}
	results, err := e.RunMerged(specs)
	if err != nil {
		t.Fatalf("RunMerged: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// All jobs see the same data, so outputs agree.
	for i := 1; i < 3; i++ {
		if fmt.Sprint(results[i].Output) != fmt.Sprint(results[0].Output) {
			t.Errorf("job %d output differs from job 0", i)
		}
	}
	// One scan per block despite three jobs: that is the shared scan.
	if st := store.Stats(); st.BlockReads != 4 {
		t.Errorf("block reads = %d, want 4 (one per block for the whole batch)", st.BlockReads)
	}
}

func TestUnmergedJobsScanRepeatedly(t *testing.T) {
	cluster, store := testCluster(t, 4, textBlocks("a", "b", "c", "d"))
	e := NewEngine(cluster)
	for i := 0; i < 3; i++ {
		if _, err := e.RunJob(wordCountSpec(fmt.Sprintf("wc%d", i))); err != nil {
			t.Fatalf("RunJob: %v", err)
		}
	}
	if st := store.Stats(); st.BlockReads != 12 {
		t.Errorf("block reads = %d, want 12 (no sharing)", st.BlockReads)
	}
}

func TestMultiRoundSubJobExecution(t *testing.T) {
	// S^3-style: run a job as two map rounds over segment halves, then
	// finish. The result must equal one-shot execution.
	cluster, _ := testCluster(t, 2, textBlocks("a b a", "b c b", "c c a", "a a a"))
	e := NewEngine(cluster)

	oneShot, err := e.RunJob(wordCountSpec("ref"))
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}

	job, err := NewRunning(wordCountSpec("split"))
	if err != nil {
		t.Fatalf("NewRunning: %v", err)
	}
	f, err := cluster.Store().File("input")
	if err != nil {
		t.Fatal(err)
	}
	all := f.Blocks()
	if _, err := e.MapRound(all[:2], []*Running{job}); err != nil {
		t.Fatalf("MapRound 1: %v", err)
	}
	if _, err := e.MapRound(all[2:], []*Running{job}); err != nil {
		t.Fatalf("MapRound 2: %v", err)
	}
	res, err := e.Finish(job)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if fmt.Sprint(res.Output) != fmt.Sprint(oneShot.Output) {
		t.Errorf("split execution output %v != one-shot %v", res.Output, oneShot.Output)
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	blocks := textBlocks("a a a a a a a a", "a a a a a a a a")
	cluster, _ := testCluster(t, 2, blocks)
	e := NewEngine(cluster)

	plain := wordCountSpec("plain")
	res1, err := e.RunJob(plain)
	if err != nil {
		t.Fatal(err)
	}
	withComb := wordCountSpec("comb")
	withComb.Combiner = sumReducer{}
	res2, err := e.RunJob(withComb)
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
	cluster, _ := testCluster(t, 2, textBlocks("b a", "d c"))
	e := NewEngine(cluster)
	spec := JobSpec{Name: "ident", File: "input", Mapper: wordCountMapper{}}
	res, err := e.RunJob(spec)
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
	cluster, _ := testCluster(t, 2, textBlocks("a", "b"))
	e := NewEngine(cluster)
	boom := errors.New("boom")
	spec := JobSpec{
		Name: "bad", File: "input",
		Mapper: MapperFunc(func(dfs.BlockID, []byte, Emit) error { return boom }),
	}
	if _, err := e.RunJob(spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	cluster, _ := testCluster(t, 2, textBlocks("a", "b"))
	e := NewEngine(cluster)
	boom := errors.New("reduce-boom")
	spec := wordCountSpec("bad")
	spec.Reducer = ReducerFunc(func(string, []string, Emit) error { return boom })
	if _, err := e.RunJob(spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestCombinerErrorPropagates(t *testing.T) {
	cluster, _ := testCluster(t, 2, textBlocks("a", "b"))
	e := NewEngine(cluster)
	boom := errors.New("combine-boom")
	spec := wordCountSpec("bad")
	spec.Combiner = ReducerFunc(func(string, []string, Emit) error { return boom })
	if _, err := e.RunJob(spec); !errors.Is(err, boom) {
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
}

func TestRunMergedRejectsMixedFiles(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := store.AddFile("a", 2, [][]byte{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AddFile("b", 2, [][]byte{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(MustCluster(store, 1))
	specs := []JobSpec{
		{Name: "ja", File: "a", Mapper: wordCountMapper{}},
		{Name: "jb", File: "b", Mapper: wordCountMapper{}},
	}
	if _, err := e.RunMerged(specs); err == nil {
		t.Fatal("RunMerged across files should fail")
	}
	if _, err := e.RunMerged(nil); err == nil {
		t.Fatal("RunMerged with no jobs should fail")
	}
}

func TestMapRoundRequiresJobs(t *testing.T) {
	cluster, _ := testCluster(t, 2, textBlocks("a"))
	e := NewEngine(cluster)
	if _, err := e.MapRound(nil, nil); err == nil {
		t.Fatal("MapRound with no jobs should fail")
	}
}

func TestLocalityAllLocalWithReplicationOne(t *testing.T) {
	cluster, _ := testCluster(t, 4, textBlocks("a", "b", "c", "d"))
	e := NewEngine(cluster)
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cluster.Store().File("input")
	stats, err := e.MapRound(f.Blocks(), []*Running{job})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalTasks != 4 || stats.Blocks != 4 || stats.MapTasks != 4 {
		t.Errorf("stats = %+v, want 4 local / 4 blocks / 4 tasks", stats)
	}
	if _, err := e.Finish(job); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFinishPanics(t *testing.T) {
	cluster, _ := testCluster(t, 2, textBlocks("a"))
	e := NewEngine(cluster)
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cluster.Store().File("input")
	if _, err := e.MapRound(f.Blocks(), []*Running{job}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(job); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Finish should panic")
		}
	}()
	_, _ = e.Finish(job)
}

func TestMapAfterFinishFails(t *testing.T) {
	cluster, _ := testCluster(t, 2, textBlocks("a", "b"))
	e := NewEngine(cluster)
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cluster.Store().File("input")
	if _, err := e.MapRound(f.Blocks()[:1], []*Running{job}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(job); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MapRound(f.Blocks()[1:], []*Running{job}); err == nil {
		t.Error("MapRound after Finish should fail")
	}
}

func TestClusterSlotsAndNodes(t *testing.T) {
	store := dfs.MustStore(5, 1)
	c := MustCluster(store, 2)
	for _, n := range c.Nodes() {
		if n.MapSlots != 2 {
			t.Errorf("node %d has %d map slots, want 2", n.ID, n.MapSlots)
		}
	}
	if len(c.Nodes()) != 5 {
		t.Errorf("Nodes = %d, want 5", len(c.Nodes()))
	}
	if c.Node(3).ID != 3 {
		t.Errorf("Node(3).ID = %d", c.Node(3).ID)
	}
	defer func() {
		if recover() == nil {
			t.Error("Node out of range should panic")
		}
	}()
	c.Node(9)
}

func TestNewClusterValidation(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := NewCluster(store, 0); err == nil {
		t.Error("NewCluster with zero slots should return an error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCluster with zero slots should panic")
		}
	}()
	MustCluster(store, 0)
}

// outputMap indexes a result's output by key.
func outputMap(res *Result) map[string]string {
	out := make(map[string]string, len(res.Output))
	for _, kv := range res.Output {
		out[kv.Key] = kv.Value
	}
	return out
}

func TestAssignBlocksBalances(t *testing.T) {
	store := dfs.MustStore(2, 2) // every block on both nodes
	if _, err := store.AddMetaFile("f", 6, 8); err != nil {
		t.Fatal(err)
	}
	c := MustCluster(store, 1)
	f, _ := store.File("f")
	asgs := c.assignBlocks(f.Blocks())
	count := map[dfs.NodeID]int{}
	for _, a := range asgs {
		if !a.local {
			t.Errorf("block %v assigned non-locally with full replication", a.block)
		}
		count[a.node.ID]++
	}
	if count[0] != 3 || count[1] != 3 {
		t.Errorf("assignment unbalanced: %v", count)
	}
}
