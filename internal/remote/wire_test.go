package remote

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/workload"
)

// wireFiles are the kinds of block a store can hold, three blocks each.
func wireFiles() map[string][][]byte {
	const size = 16 << 10
	files := map[string][][]byte{"derived": {
		[]byte("the\t412\nof\t97\nzephyr\t1\n"), []byte("and\t300\nwhisper\t2\n"), []byte("   \n"),
	}}
	for i := 0; i < 3; i++ {
		files["text"] = append(files["text"], workload.NewTextGen(7).Block(i, size))
		files["lineitem"] = append(files["lineitem"], workload.NewLineitemGen(7).Block(i, size))
	}
	return files
}

// wireCases gives every standard factory a parameter and the file kind
// it can scan. A factory missing here fails the tests below.
var wireCases = map[string]struct{ param, file string }{
	"wordcount":       {"t", "text"},
	"heavy-wordcount": {"3:t", "text"},
	"selection":       {"25", "lineitem"},
	"aggregation":     {"", "lineitem"},
	"topk":            {"3", "derived"},
}

// wireRoundTrip encodes v and decodes it into into, as a task call does.
func wireRoundTrip(t *testing.T, v, into message) {
	t.Helper()
	if err := decodeMessage(v.appendTo(nil), into); err != nil {
		t.Fatal(err)
	}
}

// fetchOf is the reply a holder of runs, one per block from 0 up, sends.
func fetchOf(runs ...[]mapreduce.KV) *FetchReply {
	reply := &FetchReply{Runs: runs}
	for block := range runs {
		reply.Blocks = append(reply.Blocks, block)
	}
	return reply
}

// Every factory's real map output — over text, lineitem, derived and
// empty blocks, wherever the mapper accepts them — survives the hop that
// carries records, FetchReply → wire → FetchReply, record for record, and
// its receipts survive the map reply's.
func TestMapReplySurvivesTheWire(t *testing.T) {
	blocks := wireFiles()
	blocks["empty"] = [][]byte{nil}
	reg := NewStandardRegistry()
	for _, factory := range reg.Names() {
		c, ok := wireCases[factory]
		if !ok {
			t.Errorf("factory %q has no case in wireCases; add one", factory)
			continue
		}
		mapper, _, combiner, err := reg.Build(factory, c.param)
		if err != nil {
			t.Fatal(err)
		}
		survived := 0
		for kind, bs := range blocks {
			sent := MapTaskReply{BytesScanned: 1 << 40}
			var runs [][]mapreduce.KV
			for _, width := range []int{1, 3} {
				parts, err := mapreduce.MapBlockForJob(dfs.BlockID{}, bs[0], mapper, combiner, width)
				if err != nil {
					break // this mapper does not read this kind of block
				}
				receipts := make([]PartReceipt, width)
				for p, kvs := range parts {
					receipts[p] = receiptOf(kvs)
				}
				sent.Receipts, runs = append(sent.Receipts, receipts), append(runs, parts...)
			}
			if len(runs) == 0 {
				continue
			}
			var got MapTaskReply
			wireRoundTrip(t, &sent, &got)
			if !reflect.DeepEqual(got, sent) {
				t.Errorf("%s over a %s block: receipts changed crossing the wire", factory, kind)
			}
			var fetched FetchReply
			wireRoundTrip(t, fetchOf(runs...), &fetched)
			if !reflect.DeepEqual(&fetched, fetchOf(runs...)) {
				t.Errorf("%s over a %s block: fetch reply changed crossing the wire", factory, kind)
			}
			survived++
		}
		if survived < 2 { // its own kind and the empty block at least
			t.Errorf("%s: only %d block kinds produced a reply", factory, survived)
		}
	}

	// Pinned: an empty run comes back nil, whether it left as nil or as
	// empty, and a holder with nothing answers in one byte.
	var got FetchReply
	wireRoundTrip(t, fetchOf([]mapreduce.KV{}, nil, []mapreduce.KV{{Key: "k"}}), &got)
	if len(got.Runs) != 3 || got.Runs[0] != nil || got.Runs[1] != nil || len(got.Runs[2]) != 1 {
		t.Errorf("empty runs decoded as %#v", got.Runs)
	}
	if b := (&FetchReply{}).appendTo(nil); len(b) != 1 {
		t.Errorf("an empty fetch reply is %d bytes", len(b))
	}
}

// A malformed fetch reply is a decode error, not a panic and not a reply.
func TestFetchReplyRejectsMalformed(t *testing.T) {
	good := (&FetchReply{Blocks: []int{2, 5}, Runs: [][]mapreduce.KV{{{Key: "k", Value: "v"}}, nil}}).appendTo(nil)
	cases := map[string][]byte{
		"empty":             {},
		"run count too big": {200, 1, 0},
		"runs missing":      good[:1],
		"frame cut":         good[:4],
		"trailing bytes":    append(append([]byte(nil), good...), 0),
		"block repeated":    {2, 5, 0, 5, 0},
		"blocks descending": {2, 5, 0, 4, 0},
	}
	for name, data := range cases {
		var r FetchReply
		if err := decodeMessage(data, &r); err == nil {
			t.Errorf("%s: decoded %+v", name, r)
		} else if r.Blocks != nil || r.Runs != nil {
			t.Errorf("%s: error %v but the reply was filled in", name, err)
		}
	}
	var r FetchReply
	if err := decodeMessage(good, &r); err != nil || !reflect.DeepEqual(r.Blocks, []int{2, 5}) || r.Runs[0][0].Value != "v" || r.Runs[1] != nil {
		t.Fatalf("good reply: %+v, %v", r, err)
	}
}

// seqReference is the job run the plainest way: every block mapped in
// order, each partition reduced, everything concatenated and sorted.
func seqReference(t *testing.T, blocks [][]byte, ref JobRef) []mapreduce.KV {
	t.Helper()
	mapper, reducer, combiner, err := NewStandardRegistry().Build(ref.Factory, ref.Param)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]mapreduce.KV, ref.width())
	for i, data := range blocks {
		ps, err := mapreduce.MapBlockForJob(dfs.BlockID{Index: i}, data, mapper, combiner, ref.width())
		if err != nil {
			t.Fatal(err)
		}
		for p := range ps {
			parts[p] = append(parts[p], ps[p]...)
		}
	}
	var all []mapreduce.KV
	for _, records := range parts {
		out, err := mapreduce.ReducePartition(records, reducer)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		return all[i].Value < all[j].Value
	})
	return all
}

// wireCluster serves the wire files from n workers (wrap, when set,
// puts a double in front of worker 0) and dials a master.
func wireCluster(t *testing.T, n int, jobs map[scheduler.JobID]JobRef, wrap func(*Worker) any) *Master {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		store := dfs.MustStore(1, 1)
		for name, blocks := range wireFiles() {
			if _, err := store.AddFile(name, int64(len(blocks[0])), padBlocks(blocks)); err != nil {
				t.Fatal(err)
			}
		}
		w := NewWorker(store, NewStandardRegistry())
		if i == 0 && wrap != nil {
			addrs = append(addrs, serveStub(t, wrap(w)))
			continue
		}
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, addr)
	}
	m, err := Dial(addrs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// padBlocks right-pads blocks with spaces to the first one's length:
// a store's blocks are uniform.
func padBlocks(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = append(append([]byte(nil), b...), bytes.Repeat([]byte{' '}, len(blocks[0])-len(b))...)
	}
	return out
}

// wholeFileRound is one round over every block of a wire file that
// completes all of jobs.
func wholeFileRound(file string, ids ...scheduler.JobID) scheduler.Round {
	r := scheduler.Round{Segment: 0, Completes: ids}
	for i := range wireFiles()[file] {
		r.Blocks = append(r.Blocks, dfs.BlockID{File: file, Index: i})
	}
	for _, id := range ids {
		r.Jobs = append(r.Jobs, scheduler.JobMeta{ID: id, File: file})
	}
	return r
}

// Every factory, as a whole job through two loopback workers with one
// and with three reduce partitions, outputs what the sequential
// reference does, byte for byte.
func TestFullJobMatchesSequentialReference(t *testing.T) {
	for _, factory := range NewStandardRegistry().Names() {
		c, ok := wireCases[factory]
		if !ok {
			t.Errorf("factory %q has no case in wireCases; add one", factory)
			continue
		}
		jobs := map[scheduler.JobID]JobRef{}
		for i, width := range []int{1, 3} {
			jobs[scheduler.JobID(i+1)] = JobRef{Name: fmt.Sprintf("%s-r%d", factory, width), Factory: factory, Param: c.param, NumReduce: width}
		}
		m := wireCluster(t, 2, jobs, nil)
		if _, err := m.ExecRound(wholeFileRound(c.file, 1, 2)); err != nil {
			t.Fatalf("%s: %v", factory, err)
		}
		for id, ref := range jobs {
			want := seqReference(t, padBlocks(wireFiles()[c.file]), ref)
			got, err := m.JobOutput(id)
			if err != nil || len(want) == 0 || fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
				t.Errorf("%s: %d records (%v), the reference has %d", ref.Name, len(got), err, len(want))
			}
		}
	}
}

// manglingWorker is a real worker whose reduce output is rewritten on
// its way to the master.
type manglingWorker struct {
	*Worker
	mangle func([]byte) []byte
}

func (w *manglingWorker) FetchResult(args *FetchArgs, frame *[]byte) error {
	err := w.Worker.FetchResult(args, frame)
	*frame = w.mangle(*frame)
	return err
}

// Nothing reads a reduce output on the round's path any more, so the
// round commits on the receipt; a frame that then arrives as anything but
// the bytes the receipt stands for fails the read with an error naming
// the job, the partition and the worker: no panic, no rotation to the
// healthy worker next door, no recompute — the holder answered — and
// never the wrong bytes.
func TestMalformedReduceOutputFailsTheJob(t *testing.T) {
	mangles := map[string]struct {
		mangle func([]byte) []byte
		want   string
	}{
		"truncated frame":  {func(b []byte) []byte { return b[:len(b)-3] }, "the receipt says"},
		"trailing garbage": {func(b []byte) []byte { return append(b, "garbage"...) }, "the receipt says"},
		"one byte flipped": {func(b []byte) []byte { b = bytes.Clone(b); b[len(b)/2] ^= 1; return b }, "CRC-32C"},
	}
	for name, c := range mangles {
		jobs := map[scheduler.JobID]JobRef{1: {Name: "sel-bad-reply", Factory: "selection", Param: "25", NumReduce: 1}}
		// Partition 0's home is worker 0, the mangling one.
		m := wireCluster(t, 2, jobs, func(w *Worker) any { return &manglingWorker{w, c.mangle} })
		if _, err := m.ExecRound(wholeFileRound("lineitem", 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := m.JobOutput(1)
		if err == nil || out != nil || !strings.Contains(err.Error(), "job 1 partition 0") || !strings.Contains(err.Error(), "worker static-0") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: JobOutput = %d records, %v; want an error naming the job, the worker and %q", name, len(out), err, c.want)
		}
		var outage *allWorkersError
		if isTransportError(err) || errors.As(err, &outage) || errors.Is(err, status.ErrOutputUnavailable) || errors.Is(err, status.ErrNoOutput) {
			t.Errorf("%s: %v is not the holder's own error", name, err)
		}
		if recomputes, _ := m.ResultRecomputes(); recomputes != 0 || failovers(m) != 0 {
			t.Errorf("%s: %d recomputes, %d failovers; want neither", name, recomputes, failovers(m))
		}
	}
}

// raceEnabled is set by race_test.go: the race detector's
// instrumentation allocates, which would fail the guard below.
var raceEnabled bool

// Decoding a fetch reply costs a handful of allocations however many
// records it carries — the slices around the records, whose keys and
// values are views of the body — where gob's reflection made two strings
// per record (about 20,000 for this reply).
func TestFetchReplyDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	reply := FetchReply{Blocks: []int{3, 11}, Runs: make([][]mapreduce.KV, 2)}
	for i := 0; i < 10000; i++ {
		kv := mapreduce.KV{Key: fmt.Sprintf("%d.%d", i, i%7), Value: strings.Repeat("lineitem|", 12)}
		reply.Runs[i%2] = append(reply.Runs[i%2], kv)
	}
	body := reply.appendTo(nil)
	var got FetchReply
	allocs := testing.AllocsPerRun(5, func() {
		got = FetchReply{}
		if err := decodeMessage(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, reply) {
		t.Fatal("decoded reply differs")
	}
	if allocs > 16 {
		t.Errorf("decoding 2 runs × 5,000 records: %.0f allocations, want <= 16", allocs)
	}
}

// A scan hint rides every map task of a hinted file, ≈2,300 times a
// second on the smallest workload: one encode and decode of a task for
// seven jobs may cost only a handful of bytes and allocations more with
// a worker's share of a hint than without one, and one byte while the
// scheduler has emitted none. (Shipping the dfs.ScanHint itself — a
// struct per block — cost 24 allocations and ×0.86 jobs/s.)
func TestMapTaskHintWireCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	args := MapTaskArgs{File: "corpus", Blocks: []int{5, 7}, Corr: "r12.m5"}
	for i := 0; i < 7; i++ {
		args.Jobs = append(args.Jobs, JobRef{Name: fmt.Sprintf("wordcount-%d", i), Factory: "wordcount", Param: "th", NumReduce: 2})
	}
	// cost is one message's wire bytes and its allocations, encode into a
	// kept buffer plus decode.
	var buf []byte
	cost := func(msg, into message) ([]byte, float64) {
		allocs := testing.AllocsPerRun(10, func() {
			buf = msg.appendTo(buf[:0])
			if err := decodeMessage(buf, into); err != nil {
				t.Fatal(err)
			}
		})
		return bytes.Clone(buf), allocs
	}
	// One worker's share of a hint: two pins and a prefetch.
	share := hintShare(dfs.ScanHint{
		File:     "corpus",
		Pin:      [][]dfs.BlockID{{{File: "corpus", Index: 5}}, {{File: "corpus", Index: 6}}},
		Prefetch: []dfs.BlockID{{File: "corpus", Index: 6}},
	}, 0, 1)
	var got MapTaskArgs
	plain, plainAllocs := cost(&args, &got)
	hinted := args
	hinted.Hint = share
	withHint, hintAllocs := cost(&hinted, &got)
	if !reflect.DeepEqual(got, hinted) {
		t.Fatalf("task arrived as %+v, want %+v", got, hinted)
	}
	t.Logf("task of 7 jobs: %d bytes, %.0f allocations; with the hint %v: %d bytes, %.0f allocations", len(plain), plainAllocs, share, len(withHint), hintAllocs)
	// Today 5 bytes and 1 allocation.
	if len(withHint)-len(plain) > 16 || hintAllocs-plainAllocs > 4 {
		t.Errorf("the hint costs %d bytes and %.0f allocations per task, want at most 16 and 4", len(withHint)-len(plain), hintAllocs-plainAllocs)
	}
	// The hint is the task's last field: without one, the task is what it
	// is with one up to the hint, and a zero count.
	head := len(withHint) - len(appendInts(nil, share))
	if !bytes.Equal(plain, append(withHint[:head:head], 0)) {
		t.Errorf("a task without a hint is %x, with one %x: an absent hint must cost one byte", plain, withHint)
	}
}

// BenchmarkShuffleWire moves one 512 KB lineitem block's 10% selection,
// two partitions, the way a reduce on another worker gets it: out of the
// stash of the worker that mapped it (Worker.FetchShuffle), encoded into
// a frame, read off the wire into a body of its own and decoded back
// into records. Bytes are the key + value bytes carried.
func BenchmarkShuffleWire(b *testing.B) {
	w := lineitemWorker(b, 1)
	task := &MapTaskArgs{File: "lineitem", Blocks: []int{0}, Epoch: 1, IDs: []scheduler.JobID{1},
		Jobs: []JobRef{{Name: "sel", Factory: "selection", Param: "5", NumReduce: 2}}}
	var receipt MapTaskReply
	if err := w.ExecMap(task, &receipt); err != nil {
		b.Fatal(err)
	}
	var payload int64
	for _, rc := range receipt.Receipts[0] {
		payload += rc.Bytes
	}
	var frame []byte
	hdr := make([]byte, frameHeader)
	b.SetBytes(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, rc := range receipt.Receipts[0] {
			var held, got FetchReply
			if err := w.FetchShuffle(&FetchArgs{Epoch: 1, ID: 1, Partition: p}, &held); err != nil {
				b.Fatal(err)
			}
			frame = held.appendTo(appendHeader(frame[:0], 1, statusOK))
			if err := endFrame(frame, "peer"); err != nil {
				b.Fatal(err)
			}
			_, _, body, err := readFrame(bytes.NewReader(frame), hdr, "peer")
			if err == nil {
				err = decodeMessage(body, &got)
			}
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Runs) != 1 || int64(len(got.Runs[0])) != rc.Records {
				b.Fatalf("partition %d: decoded %d runs, want one of %d records", p, len(got.Runs), rc.Records)
			}
		}
	}
}
