package remote

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// The hint tests scan an 8-segment file on two workers: 8 blocks each,
// of which a worker's cache holds half.
const (
	hintBlocks   = 16
	hintSegments = 8
	hintBudget   = hintBlocks / 2 / 2 * testBlockSize
)

// hintStore is a worker's copy of the corpus under a cache of policy
// ("" for none).
func hintStore(t *testing.T, policy string) *dfs.Store {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", hintBlocks, testBlockSize, testSeed); err != nil {
		t.Fatal(err)
	}
	if policy != "" {
		if _, err := store.EnableCachePolicy(hintBudget, policy); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// hintedS3 is the scheduler over the 8-segment plan with its hints wired
// to the master, the way cmd/s3cluster's drive does it.
func hintedS3(t *testing.T, m *Master) *core.S3 {
	t.Helper()
	f, err := dfs.MustStore(2, 1).AddMetaFile("corpus", hintBlocks, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSegments() != hintSegments {
		t.Fatalf("plan has %d segments, want %d", plan.NumSegments(), hintSegments)
	}
	sched := core.New(plan, nil)
	sched.SetScanHinter(m.HandleScanHint)
	return sched
}

// unitRounds makes every round last one virtual second, so an arrival
// time places a job at an exact round boundary whatever the wall clock
// did; before, when set, runs ahead of each round and may replace it.
type unitRounds struct {
	*Master
	before func(r scheduler.Round) error
}

func (u unitRounds) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	if u.before != nil {
		if err := u.before(r); err != nil {
			return 1, err
		}
	}
	_, err := u.Master.ExecRound(r)
	return 1, err
}

// staggeredArrivals keeps the scan going for three passes and more: each
// job arrives half way through the one before, so a round serves one or
// two jobs and the cursor never rests (29 rounds for six jobs).
func staggeredArrivals(n int) []runtime.Arrival {
	var out []runtime.Arrival
	for i := 0; i < n; i++ {
		at := vclock.Time(0)
		if i > 0 {
			at = vclock.Time(float64(i*hintSegments/2) + 0.5)
		}
		out = append(out, runtime.Arrival{Job: scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "corpus"}, At: at})
	}
	return out
}

// committed is how many jobs m has a result for.
func committed(m *Master) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.result != nil {
			n++
		}
	}
	return n
}

// outputsOf reads every committed job's output through JobOutput — from
// the workers that keep it, or by recomputing — as one string a job; a
// read that fails is a string no reference equals.
func outputsOf(m *Master) map[scheduler.JobID]string {
	out := make(map[scheduler.JobID]string)
	m.mu.Lock()
	var ids []scheduler.JobID
	for id, j := range m.jobs {
		if j.result != nil {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	for _, id := range ids {
		if kvs, err := m.JobOutput(id); err != nil {
			out[id] = "unreadable: " + err.Error()
		} else {
			out[id] = fmt.Sprint(kvs)
		}
	}
	return out
}

// Test (a) of the distributed cache path: the same three passes with no
// cache, an LRU cache and the hinted cursor cache agree on every output
// byte, and only the last one saves physical reads.
func TestHintedCursorCacheDifferential(t *testing.T) {
	const jobs = 6
	type outcome struct {
		outputs map[scheduler.JobID]string
		reads   int64 // physical, both workers
		cache   dfs.CacheStats
		steady  [2]int64 // per worker: physical reads over passes two and three
	}
	run := func(policy string) outcome {
		stores := []*dfs.Store{hintStore(t, policy), hintStore(t, policy)}
		var addrs []string
		for _, store := range stores {
			w := NewWorker(store, NewStandardRegistry())
			addr, err := w.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			addrs = append(addrs, addr)
		}
		m, err := Dial(addrs, wordcountRefs(jobs))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })

		var got outcome
		rounds := 0
		hooks := runtime.Hooks{OnRoundDone: func(scheduler.Round, vclock.Time, []scheduler.JobID) {
			rounds++
			var bytes int64
			for i, store := range stores {
				bytes += store.CacheStats().Bytes
				switch rounds {
				case hintSegments:
					got.steady[i] = -store.Stats().BlockReads
				case 3 * hintSegments:
					got.steady[i] += store.Stats().BlockReads
				}
			}
			if bytes > 2*hintBudget {
				t.Errorf("%s: %d bytes cached after round %d, budget is 2 × %d", policy, bytes, rounds, hintBudget)
			}
		}}
		res, err := runtime.RunTrace(hintedS3(t, m), unitRounds{Master: m}, staggeredArrivals(jobs), runtime.Options{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != jobs || rounds < 3*hintSegments {
			t.Fatalf("%s: %d jobs in %d rounds, want %d jobs over three passes", policy, len(res.Jobs), rounds, jobs)
		}
		got.outputs = outputsOf(m)
		for _, store := range stores {
			got.reads += store.Stats().BlockReads
			cs := store.CacheStats()
			got.cache.Hits += cs.Hits
			got.cache.Prefetches += cs.Prefetches
			got.cache.PrefetchFailed += cs.PrefetchFailed
		}
		return got
	}

	none, lru, cursor := run(""), run(dfs.PolicyLRU), run(dfs.PolicyCursor)
	if len(none.outputs) != jobs || !reflect.DeepEqual(lru.outputs, none.outputs) || !reflect.DeepEqual(cursor.outputs, none.outputs) {
		t.Error("outputs differ between no cache, lru and the hinted cursor cache")
	}
	// The circular scan floods LRU: it reads what no cache reads.
	if lru.reads != none.reads || lru.cache.Hits != 0 {
		t.Errorf("lru: %d physical reads and %d hits, want the uncached run's %d reads and no hit", lru.reads, lru.cache.Hits, none.reads)
	}
	if cursor.reads >= lru.reads {
		t.Errorf("cursor: %d physical reads, lru %d: the hints saved nothing", cursor.reads, lru.reads)
	}
	if cursor.cache.Prefetches == 0 || cursor.cache.PrefetchFailed != 0 {
		t.Errorf("cursor: %d prefetches, %d failed; want some and none", cursor.cache.Prefetches, cursor.cache.PrefetchFailed)
	}
	// A cache of C blocks pins two and keeps the rest across the cycle:
	// at least C−2 of a worker's N blocks per pass are never read again.
	// One read of slack: the readahead issued by the window's last round
	// may land on either side of the count.
	const n, c = hintBlocks / 2, hintBudget / testBlockSize
	for i, reads := range cursor.steady {
		if limit := int64(2*(n-(c-2)) + 1); reads > limit {
			t.Errorf("cursor: worker %d read %d blocks over two warm passes, want at most %d", i, reads, limit)
		}
	}
}

// dropJoin stands in front of the master's control address for rcvr, a
// double of w. rejoin serves w again, for the address it registers,
// registers it as the cluster's one worker, w0, on a connection of its
// own whose calls rcvr serves, and returns once the master lists this
// incarnation, the registrations-th, as joined. drop cuts every
// connection rejoin has made so far.
func dropJoin(t *testing.T, m *Master, ctl string, w *Worker, rcvr taskHandler) (rejoin func(registrations int64), drop func()) {
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	rejoin = func(registrations int64) {
		t.Helper()
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ctl)
		if err != nil {
			t.Fatal(err)
		}
		br, err := join(conn, &registration{ID: "w0", Addr: addr, MapSlots: w.slots}, 5*time.Second)
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		go serveConn(conn, br, dispatchTo(rcvr), 0)
		waitFor(t, 5*time.Second, "the worker to join", func() bool {
			snap := m.ClusterSnapshot()
			return len(snap) == 1 && snap[0].State == comms.Joined.String() && snap[0].Reconnects == registrations-1
		})
	}
	drop = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
		conns = nil
	}
	return rejoin, drop
}

// hintRecorder is a real worker that remembers the hint of every map
// task it runs and, once armed, cuts the master off after running one:
// the task took effect here and is lost there.
type hintRecorder struct {
	*Worker
	mu    sync.Mutex
	seen  map[int][][]int // a task's first block → the hint of each task over it
	armed bool
	drop  func()
}

func (h *hintRecorder) ExecMap(args *MapTaskArgs, reply *MapTaskReply) error {
	err := h.Worker.ExecMap(args, reply)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen[args.Blocks[0]] = append(h.seen[args.Blocks[0]], args.Hint)
	if h.armed {
		h.armed = false
		h.drop()
	}
	return err
}

// Test (b): a round whose map tasks ran and whose connection then broke
// is requeued, its second attempt carries the same hint to the same
// worker, and the double application changes no output.
func TestRequeuedRoundResendsItsHint(t *testing.T) {
	const jobs, lostSegment = 2, 5
	m := NewMaster(wordcountRefs(jobs))
	ctl, err := m.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rec := &hintRecorder{Worker: NewWorker(hintStore(t, dfs.PolicyCursor), NewStandardRegistry()), seen: make(map[int][][]int)}
	defer rec.Close()
	join, drop := dropJoin(t, m, ctl, rec.Worker, rec)
	rec.drop = drop
	join(1)

	attempts := 0
	exec := unitRounds{Master: m, before: func(r scheduler.Round) error {
		if r.Segment != lostSegment {
			return nil
		}
		if attempts++; attempts > 1 {
			return nil
		}
		rec.mu.Lock()
		rec.armed = true
		rec.mu.Unlock()
		_, err := m.ExecRound(r)
		// The worker comes back, cache and all, on fresh connections.
		rec.Close()
		join(2)
		return err
	}}
	res, err := runtime.RunTrace(hintedS3(t, m), exec, staggeredArrivals(jobs), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fs := res.Faults; fs.RequeuedRounds != 1 || attempts != 2 {
		t.Fatalf("%d requeued rounds over %d attempts at segment %d, want 1 over 2", fs.RequeuedRounds, attempts, lostSegment)
	}

	// Both jobs share the segment's one round, and its two blocks are at
	// home on the one worker: a round is one task, opened by the segment's
	// first block, and one hint. The lost attempt's task ran before the
	// cut, so the segment's was sent twice, with one and the same hint.
	for first := range rec.seen {
		if first%2 != 0 {
			t.Errorf("a task opened at block %d: the worker's two blocks of a round did not share one message", first)
		}
	}
	hints := rec.seen[2*lostSegment]
	if len(hints) != 2 {
		t.Errorf("segment %d was sent %d tasks, want the lost one and the requeued one: %v", lostSegment, len(hints), rec.seen)
	}
	for _, h := range hints {
		if len(h) == 0 || !reflect.DeepEqual(h, hints[0]) {
			t.Errorf("segment %d was sent hints %v, want one hint repeated", lostSegment, hints)
		}
	}

	// Same jobs, undisturbed and uncached.
	plain, err := Dial([]string{serveStub(t, NewWorker(hintStore(t, ""), NewStandardRegistry()))}, wordcountRefs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := runtime.RunTrace(hintedS3(t, plain), unitRounds{Master: plain}, staggeredArrivals(jobs), runtime.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := outputsOf(m), outputsOf(plain); len(got) != jobs || !reflect.DeepEqual(got, want) {
		t.Error("the requeued, twice-hinted run changed an output")
	}
}

// Test (c): a worker replaced mid-pass by a fresh process — empty cache,
// no hint ever seen — is pinning, reading ahead and hitting again within
// one cycle, from nothing but the hints on its ordinary map tasks.
func TestRestartedWorkerRewarmsFromTaskHints(t *testing.T) {
	const jobs = 6
	m := NewMaster(wordcountRefs(jobs))
	ctl, err := m.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := func(id string) (*Worker, *dfs.Store) {
		store := hintStore(t, dfs.PolicyCursor)
		w := NewWorker(store, NewStandardRegistry())
		if _, err := w.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := w.Register(ctl, RegisterOptions{ID: id, Heartbeat: testHeartbeat}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w, store
	}
	start("w0")
	old, _ := start("w1")
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var fresh *dfs.Store
	var afterOneCycle dfs.CacheStats
	rounds := 0
	hooks := runtime.Hooks{OnRoundDone: func(scheduler.Round, vclock.Time, []scheduler.JobID) {
		switch rounds++; rounds {
		case hintSegments + 2: // well into the second pass
			old.Close()
			waitFor(t, 5*time.Second, "loss detection", func() bool { n, _ := m.MapSlots(); return n == 1 })
			_, fresh = start("w1")
			waitFor(t, 5*time.Second, "the replacement to join", func() bool { n, _ := m.MapSlots(); return n == 2 })
		case 2*hintSegments + 2:
			afterOneCycle = fresh.CacheStats()
		}
	}}
	res, err := runtime.RunTrace(hintedS3(t, m), unitRounds{Master: m}, staggeredArrivals(jobs), runtime.Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != jobs || fresh == nil {
		t.Fatalf("%d jobs finished, replacement started: %v", len(res.Jobs), fresh != nil)
	}
	if cs := afterOneCycle; cs.Prefetches == 0 || cs.Hits == 0 || cs.PinnedBytes == 0 || cs.PrefetchFailed != 0 {
		t.Errorf("one cycle after the restart the replacement's cache shows %+v, want prefetches, hits and pins", cs)
	}
	// Its first pass is all readahead hits; the passes after it also find
	// the blocks it kept.
	if cs := fresh.CacheStats(); cs.Hits <= afterOneCycle.Hits || fresh.Stats().BlockReads >= cs.Hits+cs.Misses {
		t.Errorf("replacement ended with %+v and %d physical reads: the cache stopped paying", cs, fresh.Stats().BlockReads)
	}
}

// The worker's demand read and the hinted readahead meet in one cache
// shard: hint, prefetch, then the map task's read is a hit on the one
// physical read the prefetch made, inside the budget.
func TestWorkerReadsWhereReadaheadLands(t *testing.T) {
	store := hintStore(t, dfs.PolicyCursor)
	w := NewWorker(store, NewStandardRegistry())
	block := dfs.BlockID{File: "corpus", Index: 3}
	store.HandleScanHint(dfs.ScanHint{File: "corpus", Pin: [][]dfs.BlockID{{block}}, Prefetch: []dfs.BlockID{block}})
	waitFor(t, 5*time.Second, "the prefetch to land", func() bool { return store.CacheStats().Bytes > 0 })

	var reply MapTaskReply
	args := &MapTaskArgs{File: "corpus", Blocks: []int{block.Index}, IDs: []scheduler.JobID{1}, Jobs: []JobRef{{Name: "wc", Factory: "wordcount", Param: "t"}}}
	if err := w.ExecMap(args, &reply); err != nil {
		t.Fatal(err)
	}
	cs := store.CacheStats()
	if cs.Hits != 1 || cs.Misses != 0 || cs.Prefetches != 1 || store.Stats().BlockReads != 1 {
		t.Errorf("cache %+v, %d physical reads; want the task's read to hit the one prefetched copy", cs, store.Stats().BlockReads)
	}
	if cs.Bytes != testBlockSize || cs.Bytes > hintBudget {
		t.Errorf("%d bytes cached for one %d-byte block under a budget of %d", cs.Bytes, testBlockSize, hintBudget)
	}
}

// hintShare and scanHint are inverses on a worker's share, a worker gets
// nothing about blocks homed elsewhere, and a count the indices behind it
// cannot hold is an error, not a panic.
func TestHintShareRoundTrip(t *testing.T) {
	ids := func(idx ...int) []dfs.BlockID {
		var out []dfs.BlockID
		for _, i := range idx {
			out = append(out, dfs.BlockID{File: "f", Index: i})
		}
		return out
	}
	h := dfs.ScanHint{File: "f", Pin: [][]dfs.BlockID{ids(4, 5), ids(6, 7)}, Prefetch: ids(6, 7)}
	for pos, want := range [][]int{{2, 4, 6, 1, 6}, {2, 5, 7, 1, 7}} {
		share := hintShare(h, pos, 2)
		if !reflect.DeepEqual(share, want) {
			t.Errorf("worker %d of 2: share %v, want %v", pos, share, want)
		}
		got, err := (&MapTaskArgs{File: "f", Hint: share}).scanHint()
		wantHint := dfs.ScanHint{File: "f", Pin: [][]dfs.BlockID{ids(want[1], want[2])}, Prefetch: ids(want[4])}
		if err != nil || !reflect.DeepEqual(got, wantHint) {
			t.Errorf("worker %d of 2: rebuilt %+v (%v), want %+v", pos, got, err, wantHint)
		}
	}
	if share := hintShare(h, 0, 1); !reflect.DeepEqual(share, []int{4, 4, 5, 6, 7, 2, 6, 7}) {
		t.Errorf("the only worker's share is %v, want the whole hint", share)
	}
	if share := hintShare(dfs.ScanHint{File: "f"}, 0, 2); !reflect.DeepEqual(share, []int{0, 0}) {
		t.Errorf("an empty hint's share is %v, want [0 0]: it still clears the pins", share)
	}
	for _, bad := range [][]int{{}, {1}, {3, 1, 2}, {-1, 0}, {0}, {0, 2, 9}, {1, 4, 2, 6}} {
		if got, err := (&MapTaskArgs{File: "f", Hint: bad}).scanHint(); err == nil {
			t.Errorf("hint %v rebuilt as %+v, want an error", bad, got)
		}
	}
	w := NewWorker(hintStore(t, dfs.PolicyCursor), NewStandardRegistry())
	args := &MapTaskArgs{File: "corpus", Hint: []int{7}, IDs: []scheduler.JobID{1}, Jobs: []JobRef{{Factory: "wordcount"}}}
	if err := w.ExecMap(args, new(MapTaskReply)); err == nil {
		t.Error("a map task with a malformed hint ran")
	}
}
