package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/trace"
	"s3sched/internal/workload"
)

// The hazards of keeping finished output on the workers, each closed by a
// test below. Outputs are compared with the sequential reference, which
// is what the master served when it kept the frames itself.

// heldResults lists the frames w keeps, by key.
func heldResults(w *Worker) map[resultKey]int {
	w.stash.mu.Lock()
	defer w.stash.mu.Unlock()
	out := make(map[resultKey]int)
	for key, held := range w.stash.results {
		out[key] = len(held.Value.(heldResult).frame)
	}
	return out
}

// dropResults empties w's result store, as a budget too small would.
func dropResults(w *Worker) {
	w.stash.mu.Lock()
	defer w.stash.mu.Unlock()
	clear(w.stash.results)
	w.stash.order.Init()
	w.stash.resultBytes = 0
}

func recomputesOf(m *Master) int64 {
	n, _ := m.ResultRecomputes()
	return n
}

// mustOutput reads one job's output as outputsOf renders it.
func mustOutput(t *testing.T, m *Master, id scheduler.JobID) string {
	t.Helper()
	kvs, err := m.JobOutput(id)
	if err != nil {
		t.Fatalf("output of job %d: %v", id, err)
	}
	return fmt.Sprint(kvs)
}

// A reduce task over a 0.85 MB partition — half a sel-shuffle job —
// answers in a few bytes: a receipt. The reply type cannot carry a record.
func TestReduceReplyCarriesNoRecords(t *testing.T) {
	const blocks = 16
	w := lineitemWorker(t, blocks)
	ref := JobRef{Name: "sel", Factory: "selection", Param: "5", NumReduce: 1}
	for b := 0; b < blocks; b++ {
		if err := w.ExecMap(&MapTaskArgs{File: "lineitem", Blocks: []int{b}, Epoch: 1, IDs: []scheduler.JobID{1}, Jobs: []JobRef{ref}}, new(MapTaskReply)); err != nil {
			t.Fatal(err)
		}
	}
	var reply ReduceTaskReply
	if err := w.ExecReduce(&ReduceTaskArgs{Job: ref, Epoch: 1, ID: 1, File: "lineitem"}, &reply); err != nil || len(reply.Missing) != 0 {
		t.Fatalf("reduce: %v, missing %v", err, reply.Missing)
	}
	if reply.Receipt.Bytes < 800<<10 || reply.Receipt.Records == 0 {
		t.Fatalf("receipt %+v: want a partition of 0.8 MB at least", reply.Receipt)
	}
	if st := w.wireStats(); st.ResultBytes != reply.Receipt.Bytes || st.ResultEntries != 1 {
		t.Errorf("the result store holds %d bytes in %d entries, the receipt says %d", st.ResultBytes, st.ResultEntries, reply.Receipt.Bytes)
	}

	body := reply.appendTo(nil)
	if size := len(body); size > 64 {
		t.Errorf("the reply for a %d-byte partition is %d wire bytes, want at most 64", reply.Receipt.Bytes, size)
	}
	var got ReduceTaskReply
	if err := decodeMessage(body, &got); err != nil || !reflect.DeepEqual(got, reply) {
		t.Fatalf("reply arrived as %+v, %v", got, err)
	}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); {
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type)
			case f.Type == reflect.TypeOf([]byte(nil)) || f.Type == reflect.TypeOf([]mapreduce.KV(nil)):
				t.Errorf("%s.%s is a %s: a reduce reply carries no payload", typ.Name(), f.Name, f.Type)
			}
		}
	}
	walk(reflect.TypeOf(reply))
}

// A held output is served as the bytes the master used to keep: word
// count, a selection and a two-partition job read back as the sequential
// reference, to the byte of the HTTP body, with nothing recomputed and
// nothing of it on the master.
func TestHeldResultIsServedUnchanged(t *testing.T) {
	jobs := map[scheduler.JobID]JobRef{
		1: {Name: "wc", Factory: "wordcount", Param: "t", NumReduce: 1},
		2: {Name: "sel", Factory: "selection", Param: "25", NumReduce: 1},
		3: {Name: "sel-two", Factory: "selection", Param: "40", NumReduce: 2},
	}
	m := wireCluster(t, 2, jobs, nil)
	for _, r := range []scheduler.Round{wholeFileRound("text", 1), wholeFileRound("lineitem", 2, 3)} {
		if _, err := m.ExecRound(r); err != nil {
			t.Fatal(err)
		}
	}
	for id, ref := range jobs {
		file := "lineitem"
		if id == 1 {
			file = "text"
		}
		want, _ := json.Marshal(seqReference(t, padBlocks(wireFiles()[file]), ref))
		for read := 0; read < 2; read++ {
			kvs, err := m.JobOutput(id)
			if got, _ := json.Marshal(kvs); err != nil || len(kvs) == 0 || !bytes.Equal(got, want) {
				t.Errorf("%s, read %d: %d bytes of JSON (%v), the reference has %d", ref.Name, read, len(got), err, len(want))
			}
		}
		m.mu.Lock()
		if res := m.results[id]; res.Output != nil || len(res.Parts) != ref.width() || res.File != file {
			t.Errorf("%s: the master keeps %+v", ref.Name, res)
		}
		m.mu.Unlock()
	}
	if n := recomputesOf(m); n != 0 {
		t.Errorf("%d recomputes of outputs that were all held", n)
	}
	stats, err := m.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	var held, served int64
	for _, st := range stats {
		held, served = held+st.ResultBytes, served+st.ResultServedBytes
	}
	if held == 0 || served != 2*held {
		t.Errorf("the workers hold %d bytes and served %d: want every frame read twice", held, served)
	}
}

// The holder of half a finished job's output dies for good. The next read
// costs one recompute — the blocks whose map output died with it (and any
// the survivor has been told to drop) mapped again for that job, both
// partitions reduced on the survivor — which is not a shuffle repair, and
// the survivor is the holder from then on.
func TestLostHolderIsRecomputed(t *testing.T) {
	workers, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, wordcountRefs(1))
	m.SetTrace(trace.MustNew(1 << 10))
	driveRounds(t, submitAll(t, 1), m, -1)
	want := referenceResults(t, 1)[1]
	if got := mustOutput(t, m, 1); got != want || recomputesOf(m) != 0 {
		t.Fatalf("before the loss: output differs from the reference, or %d recomputes", recomputesOf(m))
	}
	before := singleJobMaps(t, workers[0])
	workers[1].Close()
	for read := 0; read < 2; read++ {
		if got := mustOutput(t, m, 1); got != want {
			t.Errorf("read %d after the loss differs from the reference", read)
		}
	}
	if n := recomputesOf(m); n != 1 {
		t.Errorf("%d recomputes, want one: the second read finds the new holder", n)
	}
	if maps := singleJobMaps(t, workers[0]) - before; maps < testBlocks/2 || maps > testBlocks {
		t.Errorf("the recompute mapped %d blocks on the survivor, want the dead worker's %d at least and %d at most", maps, testBlocks/2, testBlocks)
	}
	if ss := repairsOf(m); ss != (repairs{}) {
		t.Errorf("%+v: a recompute is not a repair of a running job", ss)
	}
	if lines := corrIDs(t, m.log, trace.TaskDispatched)["j1.recompute"]; lines != 1 {
		t.Errorf("%d trace lines under corr=j1.recompute, want one", lines)
	}
}

// The holder is replaced, under its identity, by a process with an empty
// store: it answers, and has nothing. Same cost, same bytes.
func TestRestartedHolderIsRecomputed(t *testing.T) {
	master, workers, ctlAddr := startDynamicCluster(t, 2, wordcountRefs(1), testCtlConfig)
	driveRounds(t, submitAll(t, 1), master, -1)
	workers[1].Close()
	waitFor(t, 5*time.Second, "loss detection", func() bool { return master.LiveWorkers() == 1 })
	replacement := startRegisteredWorker(t, NewStandardRegistry(), ctlAddr, "w1")
	defer replacement.Close()
	waitFor(t, 5*time.Second, "replacement rejoin", func() bool { return master.LiveWorkers() == 2 })
	if len(heldResults(replacement)) != 0 {
		t.Fatal("the replacement was born holding results")
	}
	if got := mustOutput(t, master, 1); got != referenceResults(t, 1)[1] {
		t.Error("output after the restart differs from the reference")
	}
	if n := recomputesOf(master); n != 1 || len(heldResults(replacement)) == 0 {
		t.Errorf("%d recomputes and %d frames on the replacement, want one recompute that reduced there too", n, len(heldResults(replacement)))
	}
}

// A budget too small for two frames: each job's push the one before's
// out, and reading an evicted output recomputes it — which evicts in
// turn. (What a budget with room does is the next test's.)
func TestEvictedResultIsRecomputed(t *testing.T) {
	const jobs = 3
	workers, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, wordcountRefs(jobs))
	sched := submitAll(t, 1)
	driveRounds(t, sched, m, -1)
	for _, w := range workers { // no room for two frames, whatever their sizes
		w.stash.mu.Lock()
		w.stash.budget = 1
		w.stash.mu.Unlock()
	}
	for id := scheduler.JobID(2); id <= jobs; id++ {
		if err := sched.Submit(scheduler.JobMeta{ID: id, File: "corpus"}, 0); err != nil {
			t.Fatal(err)
		}
		driveRounds(t, sched, m, -1)
		for i, w := range workers {
			held := heldResults(w)
			if _, newest := held[resultKey{stashJob{m.epoch, id}, i}]; !newest || len(held) != 1 {
				t.Fatalf("after job %d worker %d holds %v: want that job's partition %d alone", id, i, held, i)
			}
		}
	}
	want := referenceResults(t, jobs)
	for id := scheduler.JobID(1); id <= jobs; id++ {
		if got := mustOutput(t, m, id); got != want[id] {
			t.Errorf("job %d differs from the reference", id)
		}
	}
	// Jobs 1 and 2 were evicted when read; recomputing them evicted job 3.
	if n := recomputesOf(m); n != jobs {
		t.Errorf("%d recomputes, want %d", n, jobs)
	}
	for i, w := range workers {
		st := w.wireStats()
		if st.ResultEvictions < jobs || st.ResultEntries != 1 {
			t.Errorf("worker %d: %d evictions, %d bytes in %d entries under a budget of one byte", i, st.ResultEvictions, st.ResultBytes, st.ResultEntries)
		}
	}
}

// The store against a model, over random put sizes and re-puts: it holds
// exactly the newest frames that fit the budget — eviction is oldest put
// first — and is never past the budget after a put, but for a single
// frame larger than all of it, which is held alone.
func TestEvictionIsOldestFirstWithinBudget(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorker(testStore(t), NewStandardRegistry())
		w.stash.budget = int64(500 + rng.Intn(2000))
		type put struct {
			key  resultKey
			size int
		}
		var model []put // oldest first
		evicted := int64(0)
		for step := 0; step < 400; step++ {
			key := resultKey{stashJob{1, scheduler.JobID(rng.Intn(40))}, rng.Intn(2)}
			size := 1 + rng.Intn(400)
			if rng.Intn(50) == 0 {
				size = int(w.stash.budget) + rng.Intn(100) // larger than the store
			}
			rc := w.stash.putResult(key, bytes.Repeat([]byte{byte(step)}, size), int64(step))
			if rc.Bytes != int64(size) || rc.Records != int64(step) || rc.Sum != crc32.Checksum(bytes.Repeat([]byte{byte(step)}, size), castagnoli) {
				t.Fatalf("seed %d step %d: receipt %+v for %d bytes", seed, step, rc, size)
			}
			model = append(slices.DeleteFunc(slices.Clone(model), func(p put) bool { return p.key == key }), put{key, size})
			total := 0
			for _, p := range model {
				total += p.size
			}
			for total > int(w.stash.budget) && len(model) > 1 {
				total, model, evicted = total-model[0].size, model[1:], evicted+1
			}
			held := heldResults(w)
			if len(held) != len(model) || w.stash.resultBytes != int64(total) || w.stash.evictions != evicted {
				t.Fatalf("seed %d step %d: %d frames, %d bytes, %d evictions; the model has %d, %d, %d", seed, step, len(held), w.stash.resultBytes, w.stash.evictions, len(model), total, evicted)
			}
			for _, p := range model {
				if held[p.key] != p.size {
					t.Fatalf("seed %d step %d: %+v is %d bytes in the store, %d in the model", seed, step, p.key, held[p.key], p.size)
				}
			}
			if w.stash.resultBytes > w.stash.budget && len(held) != 1 {
				t.Fatalf("seed %d step %d: %d bytes in %d frames under a budget of %d", seed, step, w.stash.resultBytes, len(held), w.stash.budget)
			}
		}
	}
}

// reduceGate is a real worker whose reduce tasks for one job wait for the
// gate, saying so first.
type reduceGate struct {
	*Worker
	job     scheduler.JobID
	entered chan struct{} // buffered: one token per gated task
	gate    chan struct{}
}

func (g *reduceGate) ExecReduce(args *ReduceTaskArgs, reply *ReduceTaskReply) error {
	if args.ID == g.job {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Worker.ExecReduce(args, reply)
}

// A recompute runs on the reader's goroutine while the engine's rounds go
// on: job 1's output is lost, its recompute is held half way — blocks
// mapped again, a reduce pending — while whole rounds of jobs 2 and 3
// map, release and reduce around it. Both come out right, and what the
// recompute stashed is gone with the next release.
func TestRecomputeRunsBesideRounds(t *testing.T) {
	const jobs = 3
	gate := &reduceGate{job: 1, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	workers, addrs := serveWorkers(t, 2, func(i int, w *Worker) any {
		if i == 0 {
			gate.Worker = w
			return gate
		}
		return nil
	})
	m := dialT(t, addrs, wordcountRefs(jobs))
	sched := submitAll(t, 1)
	close(gate.gate) // open while job 1 runs its own course
	driveRounds(t, sched, m, -1)
	for len(gate.entered) > 0 {
		<-gate.entered
	}
	gate.gate = make(chan struct{})
	for _, w := range workers {
		dropResults(w)
	}

	read := make(chan string, 1)
	go func() {
		kvs, err := m.JobOutput(1)
		read <- fmt.Sprint(kvs, err)
	}()
	<-gate.entered // the recompute has mapped job 1 again and is reducing
	for id := scheduler.JobID(2); id <= jobs; id++ {
		if err := sched.Submit(scheduler.JobMeta{ID: id, File: "corpus"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	driveRounds(t, sched, m, 2) // half a pass of jobs 2 and 3, beside it
	if recomputesOf(m) != 1 {
		t.Fatalf("%d recomputes in flight, want one", recomputesOf(m))
	}
	for i, w := range workers {
		if stashedJobs(w)[stashJob{m.epoch, 1}] == 0 {
			t.Errorf("worker %d dropped the recompute's map output while it was still reducing", i)
		}
	}
	close(gate.gate)
	want := referenceResults(t, jobs)
	if got := <-read; got != want[1]+" <nil>" {
		t.Error("the recomputed output differs from the reference")
	}
	driveRounds(t, sched, m, -1)
	if got := outputsOf(m); !reflect.DeepEqual(got, want) {
		t.Error("the jobs that ran beside the recompute differ from the reference")
	}
	if _, err := m.WorkerStats(); err != nil { // carries the last releases
		t.Fatal(err)
	}
	for i, w := range workers {
		if held := stashedJobs(w); len(held) != 0 {
			t.Errorf("worker %d still stashes %v", i, held)
		}
	}
	if ss := repairsOf(m); ss != (repairs{}) || recomputesOf(m) != 1 {
		t.Errorf("%+v and %d recomputes, want no repair and the one recompute", ss, recomputesOf(m))
	}
}

// Eight readers of one lost output: one recompute, eight right answers.
func TestConcurrentGetsShareOneRecompute(t *testing.T) {
	const readers = 8
	workers, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, wordcountRefs(1))
	driveRounds(t, submitAll(t, 1), m, -1)
	for _, w := range workers {
		dropResults(w)
	}
	want := referenceResults(t, 1)[1]
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if kvs, err := m.JobOutput(1); err != nil || fmt.Sprint(kvs) != want {
				t.Errorf("a reader got %d records, %v", len(kvs), err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := recomputesOf(m); n != 1 {
		t.Errorf("%d recomputes for %d concurrent readers, want one", n, readers)
	}
}

// A reducer that answers differently the second time: the recompute's
// receipts are not the committed ones, and the read is an error naming
// the job — never the other bytes, however often it is asked.
func TestRecomputeMismatchIsAnError(t *testing.T) {
	var moody atomic.Bool
	reg := NewRegistry()
	reg.Register("moody", func(string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		reducer := mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emit) error {
			emit(mapreduce.KV{Key: key, Value: fmt.Sprint(len(values), moody.Load())})
			return nil
		})
		return workload.PatternCountMapper{Prefix: "t"}, reducer, nil, nil
	})
	w := NewWorker(testStore(t), reg)
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := dialT(t, []string{addr}, map[scheduler.JobID]JobRef{1: {Name: "moody-t", Factory: "moody", NumReduce: 2}})
	driveRounds(t, submitAll(t, 1), m, -1)
	first := mustOutput(t, m, 1)
	dropResults(w)
	moody.Store(true)
	// The second read finds the frames the failed recompute left, which
	// are not what the receipts say either.
	for read, want := range []string{"committed as", "the receipt says"} {
		kvs, err := m.JobOutput(1)
		if err == nil || kvs != nil || !strings.Contains(err.Error(), "job 1 ") || !strings.Contains(err.Error(), want) {
			t.Fatalf("read %d: %d records, %v; want an error naming the job and %q", read, len(kvs), err, want)
		}
		if errors.Is(err, status.ErrOutputUnavailable) || errors.Is(err, status.ErrNoOutput) {
			t.Errorf("read %d: %v would be served as a 503 or a 404", read, err)
		}
	}
	if recomputes, mismatches := m.ResultRecomputes(); recomputes != 1 || mismatches != 1 {
		t.Errorf("%d recomputes, %d mismatches, want one of each", recomputes, mismatches)
	}
	// The reducer comes to its senses: the next recompute matches.
	moody.Store(false)
	dropResults(w)
	if got := mustOutput(t, m, 1); got != first {
		t.Error("the output after a matching recompute differs from the first read")
	}
	if _, err := m.WorkerStats(); err != nil {
		t.Fatal(err)
	}
	if held := stashedJobs(w); len(held) != 0 {
		t.Errorf("the failed recomputes left %v stashed", held)
	}
}

// A master without a journal dies; the next one numbers its jobs from 1
// again and runs another program under that id. The first call it makes
// sweeps the dead master's results out with its stash, and a read of
// "job 1" is the new master's job 1.
func TestStaleResultsOfAnEarlierMaster(t *testing.T) {
	workers, addrs := serveWorkers(t, 2, nil)
	refs := wordcountRefs(2)
	first := dialT(t, addrs, map[scheduler.JobID]JobRef{1: refs[1]})
	driveRounds(t, submitAll(t, 1), first, -1)
	first.Close()
	for i, w := range workers {
		if held := heldResults(w); len(held) != 1 {
			t.Fatalf("worker %d holds %v of the first master, want one partition", i, held)
		}
	}
	second := dialT(t, addrs, map[scheduler.JobID]JobRef{1: refs[2]})
	driveRounds(t, submitAll(t, 1), second, -1)
	if got := mustOutput(t, second, 1); got != referenceResults(t, 2)[2] || recomputesOf(second) != 0 {
		t.Errorf("the second master's job 1 differs from its reference, or was recomputed (%d)", recomputesOf(second))
	}
	for i, w := range workers {
		for key := range heldResults(w) {
			if key.job.epoch != second.epoch {
				t.Errorf("worker %d still holds %+v of an earlier master", i, key)
			}
		}
	}
}

// FuzzResultReply holds arbitrary bytes, as FetchResult's reply decoder
// hands them over — the whole body, untouched — to an arbitrary receipt.
// A frame is accepted only when its length, its CRC-32C, its being one
// whole frame and its record count all agree with the receipt; any
// disagreement is an error and never a panic; and what is accepted
// re-encodes to the very bytes.
func FuzzResultReply(f *testing.F) {
	frame := mapreduce.AppendFrame(nil, []mapreduce.KV{{Key: "k", Value: "v"}, {Key: "\xff", Value: strings.Repeat("x", 300)}})
	sum := crc32.Checksum(frame, castagnoli)
	f.Add(frame, int64(2), int64(len(frame)), sum)
	f.Add(frame, int64(3), int64(len(frame)), sum)
	f.Add(frame, int64(2), int64(len(frame))+1, sum)
	f.Add(frame, int64(2), int64(len(frame)), sum^1)
	f.Add(frame[:len(frame)-3], int64(2), int64(len(frame)-3), crc32.Checksum(frame[:len(frame)-3], castagnoli))
	f.Add([]byte{0}, int64(0), int64(1), crc32.Checksum([]byte{0}, castagnoli))
	f.Add([]byte{}, int64(0), int64(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int64(-1), int64(9), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, records, size int64, sum uint32) {
		var reply resultFrame
		if err := decodeMessage(data, &reply); err != nil || !bytes.Equal(reply, data) || !bytes.Equal(reply.appendTo(nil), data) {
			t.Fatalf("the result reply %x decoded as %x, %v", data, []byte(reply), err)
		}
		agrees := func(part journal.ResultPart) bool {
			run, err := decodeResult(reply, part)
			if err != nil {
				if run != nil {
					t.Fatalf("error %v and %d records", err, len(run))
				}
				return false
			}
			if again := mapreduce.AppendFrame(nil, run); !bytes.Equal(again, data) {
				t.Fatalf("accepted %x, which re-encodes to %x", data, again)
			}
			return true
		}
		// The receipt the bytes deserve, if they are a frame at all.
		var honest journal.ResultPart
		run, rest, err := mapreduce.DecodeFrame(string(data))
		whole := err == nil && rest == ""
		if whole {
			honest = journal.ResultPart{Records: int64(len(run)), Bytes: int64(len(data)), Sum: crc32.Checksum(data, castagnoli)}
		}
		claimed := journal.ResultPart{Records: records, Bytes: size, Sum: sum}
		if got := agrees(claimed); got != (whole && claimed == honest) {
			t.Fatalf("%x against %+v: accepted %v; it is a whole frame: %v, deserving %+v", data, claimed, got, whole, honest)
		}
		if !whole {
			return
		}
		if !agrees(honest) {
			t.Fatalf("%x refused against its own receipt %+v", data, honest)
		}
		for _, off := range []journal.ResultPart{{Records: 1}, {Bytes: 1}, {Sum: 1}} {
			lie := journal.ResultPart{Records: honest.Records + off.Records, Bytes: honest.Bytes + off.Bytes, Sum: honest.Sum ^ off.Sum}
			if agrees(lie) {
				t.Fatalf("%x accepted against %+v, its receipt is %+v", data, lie, honest)
			}
		}
	})
}

// commitFake commits a two-partition result for a fresh job id without
// running anything, as finishJob would.
func commitFake(m *Master, id scheduler.JobID) {
	ref := JobRef{Name: fmt.Sprintf("selection-%d", id%16), Factory: "selection", Param: fmt.Sprint(id % 16), NumReduce: 2}
	if err := m.RegisterJob(id, ref); err != nil {
		panic(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commitResult(journal.JobResultRecord{Job: id, File: "lineitem", Parts: []journal.ResultPart{
		{Records: 16800, Bytes: 851234, Sum: uint32(id), Holder: "static-0"},
		{Records: 16900, Bytes: 856789, Sum: ^uint32(id), Holder: "static-1"},
	}})
}

// releasedTo plays one call to w that it answers: the ids it is told of.
func releasedTo(m *Master, id string) []scheduler.JobID {
	done, ack := m.releasesFor(liveWorker{id: id})
	ack()
	return done
}

func idRange(from, to scheduler.JobID) (ids []scheduler.JobID) {
	for id := from; id <= to; id++ {
		ids = append(ids, id)
	}
	return ids
}

// Each commit trims the release list to what some live worker has still
// to hear. A slow worker gets every id it has not had, once, across the
// trims; a dead one does not hold them back; one that joins later, or
// comes back, is told what is still pending and nothing older.
func TestReleasesSurviveTrim(t *testing.T) {
	_, addrs := serveWorkers(t, 3, nil)
	m := dialT(t, addrs, nil)
	expect := func(who string, want []scheduler.JobID) {
		t.Helper()
		if got := releasedTo(m, who); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s was told of %v, want %v", who, got, want)
		}
	}
	pending := func(base, n int) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.finishedBase != base || len(m.finished) != n {
			t.Fatalf("%d ids pending from the %dth, want %d from the %dth", len(m.finished), m.finishedBase, n, base)
		}
	}
	commit := func(from, to scheduler.JobID) {
		for id := from; id <= to; id++ {
			commitFake(m, id)
		}
	}
	commit(1, 10)
	pending(0, 10) // nobody has been told anything
	for _, who := range []string{"static-0", "static-1", "static-2"} {
		expect(who, idRange(1, 10))
	}
	m.members.markDead("static-2", 0, errors.New("killed"))
	commit(11, 30)
	pending(10, 20)
	expect("static-0", idRange(11, 30))
	commit(31, 31)
	pending(10, 21) // static-1 has had ten
	expect("static-1", idRange(11, 31))
	expect("static-1", nil)
	expect("static-0", idRange(31, 31))
	commit(32, 32)
	pending(31, 1) // the dead worker's ten do not count

	// A late joiner, and the dead one back: neither is told of a trimmed id.
	late, err := dialTask(addrs[2], 0)
	if err != nil {
		t.Fatal(err)
	}
	m.members.addStatic("late", addrs[2], late)
	expect("late", idRange(32, 32))
	expect("static-2", idRange(32, 32))
	commit(33, 40)
	pending(31, 9) // static-0 and static-1 have not heard of 32
	for _, who := range []string{"static-0", "static-1"} {
		expect(who, idRange(32, 40))
	}
	commit(41, 41)
	pending(32, 9) // late has
	expect("late", idRange(33, 41))
}

// reachable is the bytes reachable from v: its own, and what its
// pointers, slices (to their capacity), strings and maps (entries and a
// half again for the buckets) lead to.
func reachable(v reflect.Value) (n int) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n += int(v.Type().Elem().Size()) + reachable(v.Elem())
		}
	case reflect.String:
		n += v.Len()
	case reflect.Slice:
		n += v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += reachable(v.Index(i))
		}
	case reflect.Map:
		n += v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size()) * 3 / 2
		for it := v.MapRange(); it.Next(); {
			n += reachable(it.Key()) + reachable(it.Value())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += reachable(v.Field(i))
		}
	}
	return n
}

// The acceptance number: two thousand finished sel-shuffle-sized jobs —
// two partitions of 0.85 MB each, 3.4 GB of output — cost the master less
// than a megabyte: a JobRef, two receipts, a file name; the release list
// does not grow with them.
func TestFinishedJobsCostTheMasterReceiptsOnly(t *testing.T) {
	const jobs = 2000
	_, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, nil)
	for id := scheduler.JobID(1); id <= jobs; id++ {
		commitFake(m, id)
		if id%4 == 0 { // a round's map tasks, answered
			releasedTo(m, "static-0")
			releasedTo(m, "static-1")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for name, table := range map[string]any{"jobs": m.jobs, "results": m.results, "finished": m.finished, "released": m.released, "shuffle": m.shuffle} {
		n := reachable(reflect.ValueOf(table))
		t.Logf("%-12s %7d bytes", name, n)
		total += n
	}
	if len(m.results) != jobs || total > 1<<20 {
		t.Errorf("%d finished jobs hold %d bytes on the master, want under %d", len(m.results), total, 1<<20)
	}
	if len(m.finished) > 4 || cap(m.finished) > 64 {
		t.Errorf("the release list is %d ids long, in room for %d, after %d jobs", len(m.finished), cap(m.finished), jobs)
	}
}
