package remote

import (
	"fmt"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

const (
	testBlocks    = 12
	testBlockSize = 2048
	testSeed      = 31
)

// startCluster boots n workers, each with its own locally generated
// copy of the corpus (the generation IS the local disk), and a master
// connected to all of them.
func startCluster(t *testing.T, n int, jobs map[scheduler.JobID]JobRef) (*Master, []*Worker) {
	t.Helper()
	reg := NewStandardRegistry()
	var addrs []string
	var workers []*Worker
	for i := 0; i < n; i++ {
		store := dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
			t.Fatal(err)
		}
		w := NewWorker(store, reg)
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	m, err := Dial(addrs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return m, workers
}

// plan builds the shared segment plan the scheduler needs; the master
// itself never touches block contents.
func testPlan(t *testing.T) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(3, 1)
	f, err := store.AddMetaFile("corpus", testBlocks, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dfs.PlanSegments(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// failovers is how many tasks succeeded only after moving off their
// first-choice worker.
func failovers(m *Master) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

func wordcountRefs(n int) map[scheduler.JobID]JobRef {
	out := make(map[scheduler.JobID]JobRef, n)
	prefixes := workload.DistinctPrefixes(n)
	for i := 0; i < n; i++ {
		id := scheduler.JobID(i + 1)
		out[id] = JobRef{
			Name:      fmt.Sprintf("wc-%s", prefixes[i]),
			Factory:   "wordcount",
			Param:     prefixes[i],
			NumReduce: 2,
		}
	}
	return out
}

func TestDistributedS3MatchesLocalEngine(t *testing.T) {
	jobs := wordcountRefs(2)
	master, _ := startCluster(t, 3, jobs)
	master.SetTimeScale(1e6)

	plan := testPlan(t)
	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "corpus"}, At: 1},
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.TET(res.Jobs); len(res.Jobs) != 2 || err != nil {
		t.Fatalf("jobs = %+v: %v", res.Jobs, err)
	}

	// Reference: the same jobs run by the sequential reference.
	for id, want := range referenceResults(t, 2) {
		got, err := master.JobOutput(id)
		if err != nil || fmt.Sprint(got) != want {
			t.Errorf("job %d: distributed output differs from the sequential reference (%v)", id, err)
		}
		if len(got) == 0 {
			t.Errorf("job %d: empty output", id)
		}
	}
}

func TestDistributedLocalityPlacement(t *testing.T) {
	jobs := wordcountRefs(1)
	master, _ := startCluster(t, 3, jobs)
	master.SetTimeScale(1e6)

	plan := testPlan(t)
	s3 := core.New(plan, nil)
	if _, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
	}, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	stats, err := master.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	// 12 blocks round-robin over 3 workers: 4 block reads each, never
	// more — each worker scans only its own blocks.
	for i, st := range stats {
		if st.BlockReads != 4 {
			t.Errorf("worker %d read %d blocks, want 4 (locality-first placement)", i, st.BlockReads)
		}
		if st.MapTasks != 4 {
			t.Errorf("worker %d ran %d map tasks, want 4", i, st.MapTasks)
		}
	}
	// A dialed worker advertises nothing: it counts for one slot, whatever
	// its pool runs on.
	if n, slots := master.MapSlots(); n != 3 || slots != 3 || master.ClusterSnapshot()[0].MapSlots != 1 {
		t.Errorf("MapSlots = %d slots on %d static workers (%+v), want one each", slots, n, master.ClusterSnapshot()[0])
	}
}

func TestDistributedSharedScan(t *testing.T) {
	jobs := wordcountRefs(3)
	master, _ := startCluster(t, 3, jobs)
	master.SetTimeScale(1e6)

	plan := testPlan(t)
	s3 := core.New(plan, nil)
	if _, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 3, File: "corpus"}, At: 0},
	}, runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	stats, err := master.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	var reads, tasks int64
	for _, st := range stats {
		reads += st.BlockReads
		tasks += st.MapTasks
	}
	if reads != testBlocks {
		t.Errorf("cluster block reads = %d, want %d (one shared pass for 3 jobs)", reads, testBlocks)
	}
	if tasks != 3*testBlocks {
		t.Errorf("map tasks = %d, want %d", tasks, 3*testBlocks)
	}
}

// The factories that take a structured param build what it says, and
// reject a malformed one with an error that names it.
func TestStandardFactoryParams(t *testing.T) {
	reg := NewStandardRegistry()
	for _, tc := range []struct {
		factory, param string
		mapper         mapreduce.Mapper
		reducer        mapreduce.Reducer
	}{
		{"heavy-wordcount", "4:th", workload.PatternCountMapper{Prefix: "th", EmitFactor: 4}, workload.SumReducer{}},
		{"heavy-wordcount", "1:", workload.PatternCountMapper{EmitFactor: 1}, workload.SumReducer{}},
		{"heavy-wordcount", "2:a:b", workload.PatternCountMapper{Prefix: "a:b", EmitFactor: 2}, workload.SumReducer{}},
		{"topk", "3", workload.TopKMapper{}, workload.TopKReducer{K: 3}},
	} {
		mapper, reducer, combiner, err := reg.Build(tc.factory, tc.param)
		// No combiner: heavy-wordcount's shuffle carries the multiplied
		// output, and topk's one reduce key needs every candidate.
		if err != nil || mapper != tc.mapper || reducer != tc.reducer || combiner != nil {
			t.Errorf("%s(%q) = %#v, %#v, %#v, %v; want %#v, %#v, no combiner", tc.factory, tc.param, mapper, reducer, combiner, err, tc.mapper, tc.reducer)
		}
	}
	for _, tc := range []struct{ factory, param string }{
		{"heavy-wordcount", "th"},
		{"heavy-wordcount", "0:th"},
		{"heavy-wordcount", "-2:th"},
		{"heavy-wordcount", "x:th"},
		{"heavy-wordcount", ""},
		{"topk", "zero"},
		{"topk", "0"},
	} {
		if _, _, _, err := reg.Build(tc.factory, tc.param); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.param)) {
			t.Errorf("%s(%q): err = %v, want one naming the param", tc.factory, tc.param, err)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewStandardRegistry()
	if _, _, _, err := reg.Build("nope", ""); err == nil {
		t.Error("unknown factory should fail")
	}
	if _, _, _, err := reg.Build("selection", "notanumber"); err == nil {
		t.Error("bad selection param should fail")
	}
	if _, _, _, err := reg.Build("selection", "5"); err != nil {
		t.Errorf("selection build: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	reg.Register("wordcount", nil)
}

func TestWorkerErrors(t *testing.T) {
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", 2, 512, 1); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(store, NewStandardRegistry())
	var mr MapTaskReply
	if err := w.ExecMap(&MapTaskArgs{File: "corpus", Blocks: []int{0}}, &mr); err == nil {
		t.Error("map task with no jobs should fail")
	}
	args := &MapTaskArgs{File: "corpus", Blocks: []int{0}, Jobs: []JobRef{{Factory: "wordcount", Param: "t", NumReduce: 1}}}
	if err := w.ExecMap(args, &mr); err == nil {
		t.Error("map task with jobs and no ids should fail")
	}
	args.File, args.IDs = "ghost", []scheduler.JobID{1}
	if err := w.ExecMap(args, &mr); err == nil {
		t.Error("unknown file should fail")
	}
	var rr ReduceTaskReply
	if err := w.ExecReduce(&ReduceTaskArgs{Job: JobRef{Factory: "nope"}}, &rr); err == nil {
		t.Error("unknown factory should fail")
	}
	if err := w.ExecReduce(&ReduceTaskArgs{Job: JobRef{Factory: "wordcount"}, File: "ghost"}, &rr); err == nil {
		t.Error("reduce over an unknown file should fail")
	}
	if w.Close() != nil {
		t.Error("closing an unstarted worker should be a no-op")
	}
}

// A map task naming an unknown factory (or a bad parameter) is refused
// before the worker touches its store: no physical block read, no
// cache insertion, no BlockReads tick — and nothing counted as served.
func TestRejectedMapTaskReadsNoBlock(t *testing.T) {
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", 2, 512, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := store.EnableCachePolicy(1<<20, dfs.PolicyLRU); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(store, NewStandardRegistry())
	good := JobRef{Name: "good", Factory: "wordcount", Param: "t", NumReduce: 1}
	shared := JobRef{Name: "shared", Factory: "selection", Param: "5", NumReduce: 1} // twice: one pass would serve both
	for _, bad := range []JobRef{{Name: "bad", Factory: "nope"}, {Name: "bad", Factory: "selection", Param: "many"}} {
		var reply MapTaskReply
		// The bad job comes last: the ones before it must not have run.
		err := w.ExecMap(&MapTaskArgs{File: "corpus", Blocks: []int{0, 1}, IDs: []scheduler.JobID{1, 2, 3, 4}, Jobs: []JobRef{good, shared, shared, bad}}, &reply)
		if err == nil {
			t.Fatalf("map task with job %+v should fail", bad)
		}
		var st StatsReply
		if err := w.Stats(&StatsArgs{}, &st); err != nil {
			t.Fatal(err)
		}
		if st.BlockReads != 0 || st.BytesScanned != 0 || st.CacheMisses != 0 || st.CacheBytes != 0 || st.MapTasks != 0 || st.MapPasses != 0 || st.StashEntries != 0 {
			t.Errorf("rejected task %+v still cost the store: %+v", bad, st)
		}
	}
}

func TestMasterErrors(t *testing.T) {
	if _, err := Dial(nil, nil); err == nil {
		t.Error("no workers should fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, nil); err == nil {
		t.Error("unreachable worker should fail")
	}
	jobs := wordcountRefs(1)
	master, _ := startCluster(t, 1, jobs)
	// Round referencing an unregistered job.
	r := scheduler.Round{
		Blocks: []dfs.BlockID{{File: "corpus", Index: 0}},
		Jobs:   []scheduler.JobMeta{{ID: 99, File: "corpus"}},
	}
	if _, err := master.ExecRound(r); err == nil || !strings.Contains(err.Error(), "no JobRef") {
		t.Errorf("err = %v, want missing JobRef", err)
	}
}

func TestTaskAPIPrimitives(t *testing.T) {
	parts, err := mapreduce.MapBlockForJob(dfs.BlockID{File: "x"}, []byte("a b a"),
		workload.PatternCountMapper{Prefix: "a"}, workload.SumReducer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 1 { // combiner folded "a a" into one record
		t.Errorf("records = %d, want 1", total)
	}
	if _, err := mapreduce.MapBlockForJob(dfs.BlockID{}, nil, nil, nil, 1); err == nil {
		t.Error("nil mapper should fail")
	}
	if _, err := mapreduce.MapBlockForJob(dfs.BlockID{}, nil, workload.PatternCountMapper{}, nil, 0); err == nil {
		t.Error("zero width should fail")
	}
	out, err := mapreduce.ReducePartition([]mapreduce.KV{{Key: "b", Value: "1"}, {Key: "a", Value: "1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Key != "a" {
		t.Errorf("identity reduce not sorted: %v", out)
	}
	merged := mapreduce.MergeSorted([][]mapreduce.KV{{{Key: "z", Value: "1"}}, {{Key: "a", Value: "2"}}})
	if merged[0].Key != "a" || merged[1].Key != "z" {
		t.Errorf("MergeSorted = %v", merged)
	}
}

func TestWorkerFailover(t *testing.T) {
	jobs := wordcountRefs(2)
	master, workers := startCluster(t, 3, jobs)
	master.SetTimeScale(1e6)

	// Kill worker 1 before the run: its blocks fail over to the
	// others, which regenerate them locally.
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}

	plan := testPlan(t)
	s3 := core.New(plan, nil)
	res, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		{Job: scheduler.JobMeta{ID: 2, File: "corpus"}, At: 0},
	}, runtime.Options{})
	if err != nil {
		t.Fatalf("run with dead worker: %v", err)
	}
	if _, err := metrics.TET(res.Jobs); err != nil {
		t.Fatal(err)
	}
	if failovers(master) == 0 {
		t.Error("expected failovers with a dead worker")
	}
	// Results still correct: compare against the sequential reference.
	got := outputsOf(master)
	for id, want := range referenceResults(t, 2) {
		if got[id] != want {
			t.Errorf("job %d: failover changed results", id)
		}
	}
}

func TestTaskErrorIsNotRetried(t *testing.T) {
	// A task-level error (bad factory param) must propagate, not spin
	// through every worker.
	jobs := map[scheduler.JobID]JobRef{
		1: {Name: "bad", Factory: "selection", Param: "notanumber", NumReduce: 1},
	}
	master, _ := startCluster(t, 2, jobs)
	master.SetTimeScale(1e6)
	plan := testPlan(t)
	s3 := core.New(plan, nil)
	_, err := runtime.RunTrace(s3, master, []runtime.Arrival{
		{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
	}, runtime.Options{})
	if err == nil {
		t.Fatal("bad job parameter should fail the run")
	}
	if failovers(master) != 0 {
		t.Errorf("task-level error caused %d failovers; want 0", failovers(master))
	}
}

func TestConcurrentMastersShareWorkers(t *testing.T) {
	// Two masters drive disjoint job sets against the same worker
	// pool concurrently; both must complete with correct results.
	reg := NewStandardRegistry()
	var addrs []string
	var workers []*Worker
	for i := 0; i < 2; i++ {
		store := dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
			t.Fatal(err)
		}
		w := NewWorker(store, reg)
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	runOne := func(prefix string) (string, error) {
		jobs := map[scheduler.JobID]JobRef{
			1: {Name: "wc-" + prefix, Factory: "wordcount", Param: prefix, NumReduce: 2},
		}
		master, err := Dial(addrs, jobs)
		if err != nil {
			return "", err
		}
		defer master.Close()
		master.SetTimeScale(1e6)
		planStore := dfs.MustStore(2, 1)
		f, err := planStore.AddMetaFile("corpus", testBlocks, testBlockSize)
		if err != nil {
			return "", err
		}
		plan, err := dfs.PlanSegments(f, 2)
		if err != nil {
			return "", err
		}
		if _, err := runtime.RunTrace(core.New(plan, nil), master, []runtime.Arrival{
			{Job: scheduler.JobMeta{ID: 1, File: "corpus"}, At: 0},
		}, runtime.Options{}); err != nil {
			return "", err
		}
		return outputsOf(master)[1], nil
	}

	type out struct {
		s   string
		err error
	}
	ch := make(chan out, 2)
	go func() { s, err := runOne("t"); ch <- out{s, err} }()
	go func() { s, err := runOne("a"); ch <- out{s, err} }()
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.s == "" || o.s == "[]" {
			t.Error("empty result from concurrent master")
		}
	}
}
