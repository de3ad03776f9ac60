package remote

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// A round is one message per worker, and a worker maps its share of it on
// a pool: what follows holds the grouped task and the pool to what the
// one-block tasks they replace did. (That a grouped task stashes, counts
// and answers what its blocks' one-block tasks would, for every standard
// factory, is internal/workload's TestGroupedMapTaskMatchesReference.)

// widePlan cuts the test corpus into segments of width blocks.
func widePlan(t *testing.T, width int) *dfs.SegmentPlan {
	t.Helper()
	f, err := dfs.MustStore(1, 1).AddMetaFile("corpus", testBlocks, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, width)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// mapsServed lists, in order, the blocks of every map task w served.
func mapsServed(w *Worker) (tasks []string) {
	for _, ev := range w.log.OfKind(trace.TaskServed) {
		if _, rest, ok := strings.Cut(ev.Detail, " map corpus#"); ok {
			blocks, _, _ := strings.Cut(rest, " jobs ")
			tasks = append(tasks, blocks)
		}
	}
	return tasks
}

// Two workers and segments of four blocks: every round each worker gets
// one task naming its two blocks of the segment — the ones at home on it —
// the master's wall-clock split counts one map phase a round, and the
// outputs are the reference's.
func TestRoundIsOneMessagePerWorker(t *testing.T) {
	const jobs = 2
	workers, addrs := serveWorkers(t, 2, nil)
	m := dialT(t, addrs, wordcountRefs(jobs))
	reg := metrics.NewRegistry()
	m.SetRegistry(reg)
	sched := core.New(widePlan(t, 4), nil)
	for id := 1; id <= jobs; id++ {
		if err := sched.Submit(scheduler.JobMeta{ID: scheduler.JobID(id), File: "corpus"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	driveRounds(t, sched, m, -1)
	checkOutputs(t, m, jobs)

	const rounds = testBlocks / 4
	for i, w := range workers {
		var want []string
		for r := 0; r < rounds; r++ {
			want = append(want, fmt.Sprint([]int{4*r + i, 4*r + i + 2}))
		}
		if got := mapsServed(w); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d served map tasks over %v, want one a round over %v", i, got, want)
		}
		// Word counts of distinct prefixes share a block's one pass.
		if st := w.wireStats(); st.MapTasks != jobs*testBlocks/2 || st.MapPasses != testBlocks/2 || st.BlockReads != testBlocks/2 {
			t.Errorf("worker %d: %d map tasks in %d passes and %d block reads, want %d in %d and %d", i, st.MapTasks, st.MapPasses, st.BlockReads, jobs*testBlocks/2, testBlocks/2, testBlocks/2)
		}
	}

	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	const reduces = jobs * 2 // wordcountRefs reduce to two partitions
	for name, want := range map[string]uint64{"map_phase": rounds, "map_handler": rounds, "map_hop": rounds, "reduce_phase": 1, "round_gap": rounds - 1,
		"map_pass": rounds * 2, "reduce_handler": reduces, "reduce_fetch": reduces, "reduce_hop": reduces} {
		if !strings.Contains(text.String(), fmt.Sprintf("s3_wall_%s_seconds_count %d\n", name, want)) {
			t.Errorf("/metrics lacks s3_wall_%s_seconds with %d observations:\n%s", name, want, text.String())
		}
	}
	phase, handler, hop := m.wall.mapPhase.Snapshot(), m.wall.mapHandler.Snapshot(), m.wall.mapHop.Snapshot()
	if handler.Sum <= 0 || handler.Sum > phase.Sum || hop.Sum > phase.Sum {
		t.Errorf("map phases sum to %v s, their slowest handlers to %v s, the hops to %v s: a handler runs inside its phase", phase.Sum, handler.Sum, hop.Sum)
	}
	// Each map task, a worker's one a round, is observed with the time its
	// passes spent mapping.
	if pass := m.wall.mapPass.Snapshot(); pass.Sum <= 0 {
		t.Errorf("s3_wall_map_pass_seconds sums to %v s over %d map tasks, want a positive sum", pass.Sum, pass.Count)
	}
	// Each reducer fetches its other half from the peer: the fetch runs
	// inside the handler, and the handlers inside the reduce phases.
	phase, handler, fetch := m.wall.reducePhase.Snapshot(), m.wall.reduceHandler.Snapshot(), m.wall.reduceFetch.Snapshot()
	if fetch.Sum <= 0 || fetch.Sum > handler.Sum || handler.Sum > reduces*phase.Sum {
		t.Errorf("reduce phases sum to %v s, their handlers to %v s, the fetches in them to %v s", phase.Sum, handler.Sum, fetch.Sum)
	}
}

// lineitemStore holds a "lineitem" file of the given rows, a block each,
// padded to one size.
func lineitemStore(t *testing.T, blocks ...string) *dfs.Store {
	t.Helper()
	data := make([][]byte, len(blocks))
	for i, rows := range blocks {
		data[i] = []byte(rows + strings.Repeat(" ", 256-len(rows)))
	}
	store := dfs.MustStore(1, 1)
	if _, err := store.AddFile("lineitem", 256, data); err != nil {
		t.Fatal(err)
	}
	return store
}

// lineitemRow is a row with the given l_quantity and 16 columns, or cols.
func lineitemRow(qty string, cols int) string {
	all := strings.Split("1|2|3|4|"+qty+"|x|x|x|R|O|d|d|d|i|m|c", "|")
	return strings.Join(all[:cols], "|") + "\n"
}

// One pass serves a task's selection jobs and fails them all: a row it
// cannot parse fails the task with the error of the lowest (block, job),
// whichever group that job is in and however the pool interleaves — and
// nothing is stashed, nothing counted.
func TestSharedPassFailsWithTheLowestError(t *testing.T) {
	store := lineitemStore(t,
		lineitemRow("3", 16)+lineitemRow("7", 16),
		lineitemRow("4", 16),
		lineitemRow("q", 16), // no selection parses it, and the sum the aggregation folds rejects it
		lineitemRow("9", 6),  // too short for the aggregation only
	)
	sel5, agg, sel25 := JobRef{Name: "sel5", Factory: "selection", Param: "5"}, JobRef{Name: "agg", Factory: "aggregation"}, JobRef{Name: "sel25", Factory: "selection", Param: "25"}
	for _, c := range []struct {
		jobs []JobRef
		want string
	}{
		{[]JobRef{sel5, agg, sel25}, `job "sel5" block 2: workload: bad l_quantity`},
		{[]JobRef{agg, sel5, sel25}, `job "agg" block 2: combiner: `},
		{[]JobRef{sel25, sel5}, `job "sel25" block 2: workload: bad l_quantity`},
	} {
		w := NewWorker(store, NewStandardRegistry())
		w.slots = 4
		args := &MapTaskArgs{File: "lineitem", Blocks: []int{0, 1, 2, 3}, Epoch: 1, Jobs: c.jobs}
		for i := range c.jobs {
			args.IDs = append(args.IDs, scheduler.JobID(i+1))
		}
		for i := 0; i < 50; i++ {
			if err := w.ExecMap(args, new(MapTaskReply)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("jobs %v, run %d: err = %v, want %q", c.jobs, i, err, c.want)
			}
		}
		if st := w.wireStats(); st.StashEntries != 0 || st.StashBytes != 0 || st.MapTasks != 0 || st.MapPasses != 0 {
			t.Errorf("jobs %v: the failed tasks left %+v, want nothing stashed and nothing counted", c.jobs, st)
		}
	}
	// Without the bad rows the same three jobs run in two passes a block.
	w := NewWorker(lineitemStore(t, lineitemRow("3", 16), lineitemRow("30", 16)), NewStandardRegistry())
	args := &MapTaskArgs{File: "lineitem", Blocks: []int{0, 1}, Epoch: 1, IDs: []scheduler.JobID{1, 2, 3}, Jobs: []JobRef{sel5, agg, sel25}}
	if err := w.ExecMap(args, new(MapTaskReply)); err != nil {
		t.Fatal(err)
	}
	if st := w.wireStats(); st.MapTasks != 6 || st.MapPasses != 4 || st.StashEntries != 6 {
		t.Errorf("three jobs over two blocks: %d map tasks in %d passes, %d entries; want 6 in 4, 6", st.MapTasks, st.MapPasses, st.StashEntries)
	}
}

// failingMapper maps like wordcount, except over the blocks it fails on.
type failingMapper struct {
	mapreduce.Mapper
	on []int
}

func (f failingMapper) Map(id dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	for _, b := range f.on {
		if b == id.Index {
			return fmt.Errorf("no map over block %d", b)
		}
	}
	return f.Mapper.Map(id, data, emit)
}

// Units fail all over a task — (block 2, job b), (block 1, job c), (block
// 3, job b) — and however the pool interleaves them the task's error is
// that of the lowest (block, job), nothing is stashed and nothing counted.
func TestFailingUnitReportsTheLowestError(t *testing.T) {
	reg := NewStandardRegistry()
	reg.Register("failing", func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		m, r, c, err := reg.Build("wordcount", "t")
		var on []int
		for _, f := range strings.Fields(param) {
			var b int
			fmt.Sscan(f, &b)
			on = append(on, b)
		}
		return failingMapper{m, on}, r, c, err
	})
	w := NewWorker(testStore(t), reg)
	w.slots = 4
	args := &MapTaskArgs{File: "corpus", Blocks: []int{0, 1, 2, 3}, Epoch: 1, IDs: []scheduler.JobID{1, 2, 3}, Jobs: []JobRef{
		{Name: "a", Factory: "wordcount", Param: "t", NumReduce: 2},
		{Name: "b", Factory: "failing", Param: "2 3", NumReduce: 2},
		{Name: "c", Factory: "failing", Param: "1", NumReduce: 2},
	}}
	for i := 0; i < 50; i++ {
		err := w.ExecMap(args, new(MapTaskReply))
		if err == nil || !strings.Contains(err.Error(), `job "c" block 1:`) {
			t.Fatalf("run %d: err = %v, want the failure of job c over block 1", i, err)
		}
	}
	if st := w.wireStats(); st.StashEntries != 0 || st.StashBytes != 0 || st.MapTasks != 0 {
		t.Errorf("the failed tasks left %+v, want nothing stashed and nothing counted", st)
	}
}

// FuzzMapTaskBlocks sends a worker map tasks over arbitrary block lists,
// encoded and served as a task connection serves them. One that names a
// block twice, out of order or outside the file is a task-level error
// that read nothing and stashed nothing; any other is served, each block
// read once. The bytes themselves, as a request body, are decoded by the
// map task's decoder: it does not panic, allocates a constant factor of
// them, and accepts only the one encoding of what it decodes.
func FuzzMapTaskBlocks(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 1})
	f.Add([]byte{2, 1})
	f.Add([]byte{0, testBlocks})
	f.Add([]byte{0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		w := NewWorker(testStore(t), NewStandardRegistry())
		blocks, valid := make([]int, len(raw)), len(raw) > 0
		for i, b := range raw {
			blocks[i] = int(int8(b))
			valid = valid && blocks[i] >= 0 && blocks[i] < testBlocks && (i == 0 || blocks[i] > blocks[i-1])
		}
		checkDecoder(t, raw, new(MapTaskArgs))
		args := &MapTaskArgs{File: "corpus", Blocks: blocks, Epoch: 1, IDs: []scheduler.JobID{1}, Jobs: []JobRef{{Name: "wc", Factory: "wordcount", Param: "t", NumReduce: 2}}}
		body, err := dispatchTo(w)(execMap, args.appendTo(nil), nil)
		if err == nil {
			err = decodeMessage(body, new(MapTaskReply))
		}
		st := w.wireStats()
		if valid && (err != nil || st.BlockReads != int64(len(blocks)) || st.StashEntries != int64(len(blocks))) {
			t.Fatalf("blocks %v: err = %v, %d reads, %d entries: want every block read and stashed once", blocks, err, st.BlockReads, st.StashEntries)
		}
		if !valid && (err == nil || isTransportError(err) || st.BlockReads != 0 || st.StashEntries != 0) {
			t.Fatalf("blocks %v: err = %v, %d reads, %d entries: want a task-level error and nothing read", blocks, err, st.BlockReads, st.StashEntries)
		}
	})
}
