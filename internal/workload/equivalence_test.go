package workload_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// The byte-level mappers and the grouped map task are checked against
// the plainest statement of what they compute: tokenize with the
// standard library, build every string, sort the raw output, group the
// sorted run, hash with hash/fnv. The references below are that
// statement; nothing outside this file uses them.

func refPatternCount(prefix string, factor int) mapreduce.MapperFunc {
	return func(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
		words := strings.FieldsFunc(string(data), func(r rune) bool {
			return r == ' ' || r == '\n' || r == '\t' || r == '\r'
		})
		for _, w := range words {
			if strings.HasPrefix(w, prefix) {
				for i := 0; i < max(factor, 1); i++ {
					emit(mapreduce.KV{Key: w, Value: "1"})
				}
			}
		}
		return nil
	}
}

// refRows returns the block's non-blank lines.
func refRows(data []byte) [][]byte {
	var rows [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) > 0 {
			rows = append(rows, line)
		}
	}
	return rows
}

func refSelection(maxQuantity int) mapreduce.MapperFunc {
	return func(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
		for _, row := range refRows(data) {
			cols := bytes.Split(row, []byte{'|'})
			if len(cols) < 6 {
				return fmt.Errorf("malformed row %q", row)
			}
			qty, err := strconv.Atoi(string(cols[4]))
			if err != nil {
				return err
			}
			if qty <= maxQuantity {
				emit(mapreduce.KV{Key: string(cols[0]) + "." + string(cols[3]), Value: string(row)})
			}
		}
		return nil
	}
}

func refAggregation(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	for _, row := range refRows(data) {
		cols := bytes.Split(row, []byte{'|'})
		if len(cols) < 11 {
			return fmt.Errorf("malformed row %q", row)
		}
		emit(mapreduce.KV{Key: string(cols[8]) + "|" + string(cols[9]), Value: string(cols[4])})
	}
	return nil
}

func refTopK(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	for _, row := range refRows(data) {
		word, count, ok := strings.Cut(strings.TrimSpace(string(row)), "\t")
		count = strings.TrimSpace(count)
		if _, err := strconv.ParseInt(count, 10, 64); !ok || err != nil {
			return fmt.Errorf("malformed record %q", row)
		}
		emit(mapreduce.KV{Key: "top", Value: count + " " + word})
	}
	return nil
}

// refSum is the sum as first written: parse every value, add them up.
// SumReducer reduces by folding, so the fold is checked against this.
var refSum = mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emit) error {
	var total int64
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		total += n
	}
	emit(mapreduce.KV{Key: key, Value: strconv.FormatInt(total, 10)})
	return nil
})

// refMapBlock is the map task as first written: collect the raw
// output, sort it by (key, value), group the run, combine each group,
// then partition with hash/fnv.
func refMapBlock(data []byte, mapper mapreduce.Mapper, combiner mapreduce.Reducer, width int) ([][]mapreduce.KV, error) {
	var raw []mapreduce.KV
	if err := mapper.Map(dfs.BlockID{}, data, func(kv mapreduce.KV) { raw = append(raw, kv) }); err != nil {
		return nil, err
	}
	if combiner != nil && len(raw) > 0 {
		sort.SliceStable(raw, func(i, j int) bool {
			if raw[i].Key != raw[j].Key {
				return raw[i].Key < raw[j].Key
			}
			return raw[i].Value < raw[j].Value
		})
		var combined []mapreduce.KV
		for i := 0; i < len(raw); {
			var values []string
			key := raw[i].Key
			for ; i < len(raw) && raw[i].Key == key; i++ {
				values = append(values, raw[i].Value)
			}
			if err := combiner.Reduce(key, values, func(kv mapreduce.KV) { combined = append(combined, kv) }); err != nil {
				return nil, err
			}
		}
		raw = combined
	}
	parts := make([][]mapreduce.KV, width)
	for _, kv := range raw {
		h := fnv.New32a()
		h.Write([]byte(kv.Key))
		p := int(h.Sum32() % uint32(width))
		parts[p] = append(parts[p], kv)
	}
	return parts, nil
}

// factoryRefs names, for every factory a worker can be asked to run, the
// parameters the tests run it with and its reference mapper.
var factoryRefs = map[string]struct {
	params []string
	mapper func(param string) mapreduce.Mapper
}{
	"wordcount": {[]string{"t", "th", "whisper", ""}, func(p string) mapreduce.Mapper { return refPatternCount(p, 1) }},
	"heavy-wordcount": {[]string{"1:t", "3:th", "2:", "2:a:b"}, func(p string) mapreduce.Mapper {
		factor, prefix, _ := strings.Cut(p, ":")
		n, _ := strconv.Atoi(factor)
		return refPatternCount(prefix, n)
	}},
	"selection": {[]string{"5", "25", "0"}, func(p string) mapreduce.Mapper {
		n, _ := strconv.Atoi(p)
		return refSelection(n)
	}},
	"aggregation": {[]string{""}, func(string) mapreduce.Mapper { return mapreduce.MapperFunc(refAggregation) }},
	"topk":        {[]string{"3"}, func(string) mapreduce.Mapper { return mapreduce.MapperFunc(refTopK) }},
}

// refCombinerOf is the reference for a factory's combiner: the sum, or none.
func refCombinerOf(t *testing.T, factory string, combiner mapreduce.Reducer) mapreduce.Reducer {
	t.Helper()
	if combiner == nil {
		return nil
	}
	if _, sums := combiner.(workload.SumReducer); !sums {
		t.Fatalf("%s combines with %T; give it a reference in this test", factory, combiner)
	}
	return refSum
}

// Every factory a worker can be asked to run, over every kind of block
// a store can hold: the task a worker executes returns exactly the
// reference's partitions, or both fail (a selection over text, say).
func TestStandardFactoriesMatchReference(t *testing.T) {
	blocks := map[string][]byte{
		"text-0":     workload.NewTextGen(3).Block(0, 64<<10),
		"text-1":     workload.NewTextGen(3).Block(1, 64<<10),
		"lineitem-0": workload.NewLineitemGen(3).Block(0, 64<<10),
		"lineitem-1": workload.NewLineitemGen(3).Block(1, 64<<10),
		"derived":    []byte("the\t412\nof\t 97\nzephyr\t1\n      "),
		"empty":      nil,
		// Quantities the sum must fold exactly as it reduces them: other
		// spellings of one, a total past int64 (both wrap), and one it rejects.
		"spelled":  quantityRows("+1", "01", "1", "-0", "35"),
		"overflow": quantityRows("9223372036854775807", "9223372036854775807", "2"),
		"rejected": quantityRows("4", "1e3", "5"),
	}
	reg := remote.NewStandardRegistry()
	for _, factory := range reg.Names() {
		ref, ok := factoryRefs[factory]
		if !ok {
			t.Errorf("factory %q has no reference mapper in this test; add one", factory)
			continue
		}
		for _, param := range ref.params {
			mapper, _, combiner, err := reg.Build(factory, param)
			if err != nil {
				t.Fatal(err)
			}
			refCombiner := refCombinerOf(t, factory, combiner)
			for name, data := range blocks {
				for _, width := range []int{1, 3} {
					got, gotErr := mapreduce.MapBlockForJob(dfs.BlockID{}, data, mapper, combiner, width)
					want, wantErr := refMapBlock(data, ref.mapper(param), refCombiner, width)
					if (gotErr != nil) != (wantErr != nil) {
						t.Errorf("%s(%q) over %s: err = %v, reference err = %v", factory, param, name, gotErr, wantErr)
					} else if !reflect.DeepEqual(emitOrder(mapper, combiner, got), emitOrder(mapper, combiner, want)) {
						t.Errorf("%s(%q) over %s, width %d: partitions differ from the reference", factory, param, name, width)
					}
				}
			}
		}
	}
}

// A grouped map task — four blocks and every job of a factory in one
// message, its (block × group) passes on a pool of four — stashes for
// every job, block and partition the run the reference computes, and
// answers and counts what one-job, one-block tasks do between them. So
// does a task of one to five selection jobs — repeated and distinct
// quantities, one pass over a block for all of them — beside an
// aggregation job of the same file, a second group.
func TestGroupedMapTaskMatchesReference(t *testing.T) {
	const slots, size, width = 4, 16 << 10, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(slots)) // a worker's pool is as wide as the processors it is built on
	files := map[string][][]byte{}
	for b := 0; b < slots; b++ {
		var derived bytes.Buffer
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&derived, "w%d-%d\t%d\n", b, i, 7*i+b)
		}
		derived.WriteString(strings.Repeat(" ", size-derived.Len()))
		files["text"] = append(files["text"], workload.NewTextGen(3).Block(b, size))
		files["lineitem"] = append(files["lineitem"], workload.NewLineitemGen(3).Block(b, size))
		files["derived"] = append(files["derived"], derived.Bytes())
	}
	reg := remote.NewStandardRegistry()
	newStore := func(nodes int) *dfs.Store {
		store := dfs.MustStore(nodes, 1)
		for name, blocks := range files {
			if _, err := store.AddFile(name, size, blocks); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}
	// check runs args as one task on one worker and as one-job, one-block
	// tasks on another, and holds them to each other and to the reference;
	// the task's jobs form groups groups.
	check := func(label string, args remote.MapTaskArgs, groups int) {
		t.Helper()
		grouped, single := remote.NewWorker(newStore(1), reg), remote.NewWorker(newStore(1), reg)
		var got remote.MapTaskReply
		if err := grouped.ExecMap(&args, &got); err != nil {
			t.Fatalf("%s: grouped task: %v", label, err)
		}
		want := make([][]remote.PartReceipt, len(args.Jobs))
		for j := range args.Jobs {
			want[j] = make([]remote.PartReceipt, width)
			for b := range args.Blocks {
				one, reply := args, remote.MapTaskReply{}
				one.Blocks, one.Jobs, one.IDs = args.Blocks[b:b+1], args.Jobs[j:j+1], args.IDs[j:j+1]
				if err := single.ExecMap(&one, &reply); err != nil {
					t.Fatalf("%s: job %d over block %d: %v", label, j, b, err)
				}
				for p, rc := range reply.Receipts[0] {
					want[j][p].Records += rc.Records
					want[j][p].Bytes += rc.Bytes
				}
			}
		}
		nb, nj := int64(len(args.Blocks)), int64(len(args.Jobs))
		if got.WallNs <= 0 || got.BytesScanned != nb*size || !reflect.DeepEqual(got.Receipts, want) {
			t.Errorf("%s: the grouped task answers %+v, the one-job tasks add up to %+v", label, got, want)
		}
		var gs, ss remote.StatsReply
		if err := grouped.Stats(&remote.StatsArgs{Epoch: 1}, &gs); err != nil {
			t.Fatal(err)
		}
		if err := single.Stats(&remote.StatsArgs{Epoch: 1}, &ss); err != nil {
			t.Fatal(err)
		}
		if gs.MapTasks != nb*nj || ss.MapTasks != gs.MapTasks || gs.MapPasses != nb*int64(groups) || ss.MapPasses != ss.MapTasks ||
			gs.BlockReads != nb || gs.StashEntries != ss.StashEntries || gs.StashBytes != ss.StashBytes {
			t.Errorf("%s: the grouped task leaves the ledger %+v, the one-job tasks %+v; want %d passes", label, gs, ss, nb*int64(groups))
		}
		for j, ref := range args.Jobs {
			mapper, _, combiner, err := reg.Build(ref.Factory, ref.Param)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < width; p++ {
				fetch := &remote.FetchArgs{Epoch: 1, ID: args.IDs[j], Partition: p}
				var gr, sr remote.FetchReply
				if err := grouped.FetchShuffle(fetch, &gr); err != nil {
					t.Fatal(err)
				}
				if err := single.FetchShuffle(fetch, &sr); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gr, sr) || !reflect.DeepEqual(gr.Blocks, args.Blocks) {
					t.Fatalf("%s: %s partition %d: the grouped task stashed blocks %v, the one-job tasks %v, and the runs differ", label, ref.Name, p, gr.Blocks, sr.Blocks)
				}
				for b, run := range gr.Runs {
					parts, err := refMapBlock(files[args.File][b], factoryRefs[ref.Factory].mapper(ref.Param), refCombinerOf(t, ref.Factory, combiner), width)
					if err != nil || !reflect.DeepEqual(emitOrder(mapper, combiner, [][]mapreduce.KV{run}), emitOrder(mapper, combiner, parts[p:p+1])) {
						t.Errorf("%s: %s block %d partition %d: the stashed run differs from the reference (%v)", label, ref.Name, b, p, err)
					}
				}
			}
		}
	}

	scans := map[string]string{"wordcount": "text", "heavy-wordcount": "text", "selection": "lineitem", "aggregation": "lineitem", "topk": "derived"}
	for _, factory := range reg.Names() {
		ref, file := factoryRefs[factory], scans[factory]
		if file == "" {
			t.Errorf("factory %q has no file in this test; add one", factory)
			continue
		}
		args := remote.MapTaskArgs{File: file, Blocks: []int{0, 1, 2, 3}, Epoch: 1}
		for i, param := range ref.params {
			args.IDs = append(args.IDs, scheduler.JobID(i+1))
			args.Jobs = append(args.Jobs, remote.JobRef{Name: factory + "-" + param, Factory: factory, Param: param, NumReduce: width})
		}
		groups := len(args.Jobs) // of these jobs, distinct in their params, selections and word counts share a pass
		if factory == "selection" || factory == "wordcount" || factory == "heavy-wordcount" {
			groups = 1
		}
		check(factory, args, groups)
	}

	// Word counts share a pass whatever their prefixes: two of "t" and one
	// of "a" take one pass a block.
	args := remote.MapTaskArgs{File: "text", Blocks: []int{0, 1, 2, 3}, Epoch: 1, IDs: []scheduler.JobID{1, 2, 3}}
	for i, prefix := range []string{"t", "a", "t"} {
		args.Jobs = append(args.Jobs, remote.JobRef{Name: fmt.Sprintf("wc%d-%s", i, prefix), Factory: "wordcount", Param: prefix, NumReduce: width})
	}
	check("two word counts of one prefix and one of another", args, 1)

	quantities := []int{5, 25, 5, 0, 50}
	for n := 1; n <= len(quantities); n++ {
		label := fmt.Sprintf("%d selections and an aggregation", n)
		args := remote.MapTaskArgs{File: "lineitem", Blocks: []int{0, 1, 2, 3}, Epoch: 1}
		add := func(ref remote.JobRef) {
			args.IDs, args.Jobs = append(args.IDs, scheduler.JobID(len(args.IDs)+1)), append(args.Jobs, ref)
		}
		for i, q := range quantities[:n] {
			if i == n/2 { // between the selections: the groups interleave
				add(remote.JobRef{Name: "agg", Factory: "aggregation", NumReduce: width})
			}
			add(remote.JobRef{Name: fmt.Sprintf("sel%d-%d", i, q), Factory: "selection", Param: strconv.Itoa(q), NumReduce: width})
		}
		check(label, args, 2)
	}
}

// emitOrder makes a task's partitions comparable with the reference's: a
// word count without a combiner hands its records over a word at a time,
// not in the order the words occur, so its partitions compare sorted.
func emitOrder(mapper mapreduce.Mapper, combiner mapreduce.Reducer, parts [][]mapreduce.KV) [][]mapreduce.KV {
	if _, counts := mapper.(workload.PatternCountMapper); !counts || combiner != nil {
		return parts
	}
	out := make([][]mapreduce.KV, len(parts))
	for p, part := range parts {
		out[p] = slices.Clone(part)
		sortKVs(out[p])
	}
	return out
}

// quantityRows is one lineitem row per quantity, all in one group.
func quantityRows(quantities ...string) []byte {
	var b bytes.Buffer
	for i, q := range quantities {
		fmt.Fprintf(&b, "%d|2|3|%d|%s|x|x|x|R|O|d|d|d|i|m|c\n", i+1, i+1, q)
	}
	return b.Bytes()
}

// collect runs a mapper and returns what it emitted before it
// returned, and whether it failed.
func collect(m mapreduce.Mapper, data []byte) ([]mapreduce.KV, bool) {
	var out []mapreduce.KV
	err := m.Map(dfs.BlockID{}, data, func(kv mapreduce.KV) { out = append(out, kv) })
	return out, err != nil
}

// FuzzMappers: on arbitrary bytes each byte-level mapper emits exactly
// its reference's records and fails exactly when it does — and never
// panics or slices out of range. The record counters agree with the
// reference tokenizers too.
func FuzzMappers(f *testing.F) {
	f.Add([]byte("  the quick\r\nbrown\tthe fox  "), "th", uint8(1), 5)
	f.Add([]byte("the"), "the other", uint8(0), 0)                             // prefix longer than any word
	f.Add([]byte("a b"), "a b", uint8(2), 0)                                   // prefix spanning a separator
	f.Add([]byte("\t\ttrailing\n"), "", uint8(3), 50)                          // empty prefix, EmitFactor 3
	f.Add([]byte("\xff\xfet\x00t t\xc2\x85t"), "t", uint8(1), 1)               // not UTF-8; U+0085 is no separator
	f.Add([]byte("1|2|3|4|5|x|x|x|R|O|d|d|d|i|m|c\n"), "1", uint8(1), 5)       // one good row
	f.Add([]byte("1|2|3|4|5|x|x|x|R|O\n"), "", uint8(1), 5)                    // selection-good, aggregation-short
	f.Add([]byte("1|2|3|4|5"), "", uint8(1), 5)                                // truncated before the fifth separator
	f.Add([]byte("7|2|3|1|+4|p\n8|2|3|2|x|p\n9|2|3|3|1|p\n"), "", uint8(1), 9) // bad quantity in the middle
	f.Add([]byte("\n \n|||||\n||||||||||\n"), "|", uint8(1), -1)               // blank lines, empty columns
	f.Add(workload.NewLineitemGen(1).Block(0, 700)[:650], "1", uint8(1), 25)
	f.Add(quantityRows("7", "35", "+1", "01"), "1", uint8(2), 9)                             // sums of values other than "1", respelled
	f.Add(quantityRows("9223372036854775807", "1", "-9223372036854775808"), "", uint8(1), 0) // the running sum wraps
	f.Add(quantityRows("4", "0x10", "5"), "", uint8(1), 5)                                   // a quantity the sum rejects
	reg := remote.NewStandardRegistry()
	f.Fuzz(func(t *testing.T, data []byte, prefix string, factor uint8, maxQuantity int) {
		pattern := workload.PatternCountMapper{Prefix: prefix, EmitFactor: int(factor % 4)}
		heavy, _, noCombiner, err := reg.Build("heavy-wordcount", fmt.Sprintf("%d:%s", int(factor%4)+2, prefix))
		if err != nil || noCombiner != nil {
			t.Fatalf("heavy-wordcount over prefix %q: combiner %v, %v", prefix, noCombiner, err)
		}
		selection := workload.SelectionMapper{MaxQuantity: maxQuantity}
		for _, pair := range []struct {
			name     string
			got, ref mapreduce.Mapper
			combiner mapreduce.Reducer
		}{
			{"pattern", pattern, refPatternCount(prefix, int(factor%4)), workload.SumReducer{}},
			{"heavy", heavy, refPatternCount(prefix, int(factor%4)+2), nil},
			{"selection", selection, refSelection(maxQuantity), nil},
			{"aggregation", workload.AggregationMapper{}, mapreduce.MapperFunc(refAggregation), workload.SumReducer{}},
		} {
			got, gotFailed := collect(pair.got, data)
			want, wantFailed := collect(pair.ref, data)
			if gotFailed != wantFailed {
				t.Fatalf("%s: failed = %v, reference failed = %v", pair.name, gotFailed, wantFailed)
			}
			if _, counts := pair.got.(workload.PatternCountMapper); counts { // a word count emits a word's records together
				sortKVs(got)
				sortKVs(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: emitted %q, reference %q", pair.name, got, want)
			}
			if pair.name == "selection" {
				continue
			}
			// The others sum: the whole task, folding as it maps, against
			// sort, group, Reduce; without a combiner, as reduce tasks see it.
			task, taskErr := mapreduce.MapBlockForJob(dfs.BlockID{}, data, pair.got, pair.combiner, 3)
			ref, refErr := refMapBlock(data, pair.ref, refCombinerOf(t, pair.name, pair.combiner), 3)
			if pair.combiner == nil {
				task, ref = reduced(t, task, workload.SumReducer{}), reduced(t, ref, refSum)
			}
			if (taskErr != nil) != (refErr != nil) || !reflect.DeepEqual(task, ref) {
				t.Fatalf("%s: task %q, %v; reference %q, %v", pair.name, task, taskErr, ref, refErr)
			}
		}
		// One pass shared by selections — the fuzzed quantity twice and two
		// others — gives each the reference's records, or fails every one
		// with the same error, exactly when the reference fails.
		limits := []int{maxQuantity, maxQuantity, maxQuantity / 2, maxQuantity%50 + 10}
		jobs := make([]mapreduce.MapJob, len(limits))
		for j, q := range limits {
			jobs[j] = mapreduce.MapJob{Mapper: workload.SelectionMapper{MaxQuantity: q}, Width: 1}
		}
		parts, errs := mapPass(data, jobs)
		for j, q := range limits {
			want, wantFailed := collect(refSelection(q), data)
			if (errs[j] != nil) != wantFailed || (errs[j] == nil && !reflect.DeepEqual(parts[j][0], want)) ||
				(errs[j] != nil && errs[j].Error() != errs[0].Error()) {
				t.Fatalf("shared selection %d (<= %d): %q, %v; reference %q, failed %v; job 0 %v", j, q, parts[j], errs[j], want, wantFailed, errs[0])
			}
		}
		words, _ := collect(refPatternCount("", 1), data)
		if got := pattern.CountInputRecords(data); got != int64(len(words)) {
			t.Fatalf("pattern counted %d input records, reference %d", got, len(words))
		}
		if got := selection.CountInputRecords(data); got != int64(len(refRows(data))) {
			t.Fatalf("selection counted %d input records, reference %d", got, len(refRows(data)))
		}
	})
}

// FuzzWorkload is the end-to-end target (the CI fuzz smoke runs it):
// arbitrary bytes become a block of a worker's file and flow through the
// word count a deployed worker runs — a map task stashing its
// partitions, one reduce task per partition, the output frames read back
// and merged — and through the sequential reference, mapreduce.RunJob.
// Neither may panic, and both must give one output.
func FuzzWorkload(f *testing.F) {
	f.Add([]byte("the quick brown fox\tthe lazy dog\n"), uint8(1))
	f.Add([]byte(""), uint8(2))
	f.Add([]byte("\x00\xff|||\t\t\n\n"), uint8(3))
	f.Add([]byte("a a a b b c"), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		if len(data) == 0 || len(data) > 1<<12 {
			t.Skip()
		}
		width := int(parts%4) + 1
		store := dfs.MustStore(1, 1)
		if _, err := store.AddFile("input", int64(len(data)), [][]byte{data}); err != nil {
			t.Skip() // block shapes the store rejects are not workload bugs
		}
		want, err := mapreduce.RunJob(store, workload.WordCountJob("wc", "input", "", width))
		if err != nil {
			t.Fatal(err)
		}
		w := remote.NewWorker(store, remote.NewStandardRegistry())
		ref := remote.JobRef{Name: "wc", Factory: "wordcount", NumReduce: width}
		if err := w.ExecMap(&remote.MapTaskArgs{File: "input", Blocks: []int{0}, Jobs: []remote.JobRef{ref}, Epoch: 1, IDs: []scheduler.JobID{1}}, &remote.MapTaskReply{}); err != nil {
			t.Fatal(err)
		}
		runs := make([][]mapreduce.KV, width)
		for p := range runs {
			var reduced remote.ReduceTaskReply
			if err := w.ExecReduce(&remote.ReduceTaskArgs{Job: ref, Epoch: 1, ID: 1, File: "input", Partition: p}, &reduced); err != nil || len(reduced.Missing) > 0 {
				t.Fatalf("reduce of partition %d: %v, missing blocks %v", p, err, reduced.Missing)
			}
			var frame []byte
			if err := w.FetchResult(&remote.FetchArgs{Epoch: 1, ID: 1, Partition: p}, &frame); err != nil {
				t.Fatal(err)
			}
			var rest string
			if runs[p], rest, err = mapreduce.DecodeFrame(string(frame)); err != nil || rest != "" {
				t.Fatalf("output frame of partition %d: %v, %d bytes left", p, err, len(rest))
			}
		}
		if got := mapreduce.MergeSorted(runs); !reflect.DeepEqual(got, want.Output) {
			t.Fatalf("the worker's output %q differs from the reference's %q", got, want.Output)
		}
	})
}

// sortKVs sorts records by key, then value.
func sortKVs(kvs []mapreduce.KV) {
	sort.Slice(kvs, func(i, j int) bool {
		return kvs[i].Key < kvs[j].Key || (kvs[i].Key == kvs[j].Key && kvs[i].Value < kvs[j].Value)
	})
}

// reduced is each partition as its reduce task outputs it: what a job
// produces, whatever order its map tasks emitted in.
func reduced(t *testing.T, parts [][]mapreduce.KV, reducer mapreduce.Reducer) [][]mapreduce.KV {
	t.Helper()
	out := make([][]mapreduce.KV, len(parts))
	for p, part := range parts {
		var err error
		if out[p], err = mapreduce.ReducePartition(part, reducer); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A word count hands each distinct word to the task once, with its
// multiplicity; the task must do with it what as many separate emits
// did. For word counts with the summing combiner (a Folder), with one
// that buffers its values (no Folder) and with none (heavy-wordcount),
// the mapper and the per-occurrence reference give the same partitions
// after reduce, the same map output and combine counters, and the
// buffering combiner the same values.
func TestMultiplicityMatchesPerOccurrence(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := workload.AddTextFile(store, "corpus", 4, 8<<10, 5); err != nil {
		t.Fatal(err)
	}
	f, err := store.File("corpus")
	if err != nil {
		t.Fatal(err)
	}
	// buffering is a sum that is no Folder and records every key's values.
	type call struct {
		key    string
		values []string
	}
	buffering := func(calls *[]call) mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emit) error {
			*calls = append(*calls, call{key, slices.Clone(values)})
			return refSum.Reduce(key, values, emit)
		})
	}
	for _, prefix := range []string{"t", "wh", ""} {
		for _, factor := range []int{0, 3} {
			for _, combining := range []string{"folder", "buffer", "none"} {
				label := fmt.Sprintf("prefix %q, factor %d, combiner %s", prefix, factor, combining)
				mapper, ref := workload.PatternCountMapper{Prefix: prefix, EmitFactor: factor}, refPatternCount(prefix, factor)
				var combiner mapreduce.Reducer
				switch combining {
				case "folder":
					combiner = workload.SumReducer{}
				case "buffer":
					combiner = refSum // a ReducerFunc: no Folder
				}
				// One block at a time: partitions and what the combiner is handed.
				for b := 0; b < f.NumBlocks; b++ {
					data, err := store.ReadBlock(dfs.BlockID{File: "corpus", Index: b})
					if err != nil {
						t.Fatal(err)
					}
					var gotCalls, wantCalls []call
					gotComb, wantComb := combiner, combiner
					if combining == "buffer" {
						gotComb, wantComb = buffering(&gotCalls), buffering(&wantCalls)
					}
					got, gotErr := mapreduce.MapBlockForJob(dfs.BlockID{}, data, mapper, gotComb, 3)
					want, wantErr := mapreduce.MapBlockForJob(dfs.BlockID{}, data, ref, wantComb, 3)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("%s, block %d: %v, reference %v", label, b, gotErr, wantErr)
					}
					if !reflect.DeepEqual(reduced(t, got, workload.SumReducer{}), reduced(t, want, workload.SumReducer{})) || !reflect.DeepEqual(gotCalls, wantCalls) {
						t.Errorf("%s, block %d: the reduced partitions or the combiner's values differ from the reference", label, b)
					}
				}
				// The whole job: output and counters.
				spec := mapreduce.JobSpec{Name: "wc", File: "corpus", Mapper: mapper, Reducer: workload.SumReducer{}, Combiner: combiner, NumReduce: 3}
				got, err := mapreduce.RunJob(store, spec)
				if err != nil {
					t.Fatal(err)
				}
				spec.Mapper = ref
				want, err := mapreduce.RunJob(store, spec)
				if err != nil {
					t.Fatal(err)
				}
				gotCounters, wantCounters := got.Counters.Snapshot(), want.Counters.Snapshot()
				delete(gotCounters, mapreduce.CounterMapInputRecords) // the reference counts no input records
				if len(got.Output) == 0 || !reflect.DeepEqual(got.Output, want.Output) || !reflect.DeepEqual(gotCounters, wantCounters) {
					t.Errorf("%s: %d records and %v; reference %d and %v", label, len(got.Output), gotCounters, len(want.Output), wantCounters)
				}
			}
		}
	}
}

// A text block costs its output slice and its rand source, nothing per word.
func TestTextGenBlockAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	g := workload.NewTextGen(1)
	if n := testing.AllocsPerRun(5, func() { g.Block(0, 256<<10) }); n > 2 {
		t.Errorf("a 256 KB text block: %.0f allocations, want <= 2", n)
	}
}

// The map task's allocations follow what it emits, not what it scans —
// and with a combiner that folds, the distinct keys it emits, not the
// records.
func TestMapTaskAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	// measure is the allocations and the bytes allocated by one run of task.
	measure := func(task func() error) (allocs, bytes float64) {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if err := task(); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	// task measures one one-job map task.
	task := func(data []byte, mapper mapreduce.Mapper, combiner mapreduce.Reducer) (allocs, bytes float64) {
		return measure(func() error {
			_, err := mapreduce.MapBlockForJob(dfs.BlockID{}, data, mapper, combiner, 2)
			return err
		})
	}

	// 256 KB of text is ~48k words, ~6k of them matching: the string
	// per word and the sorted raw output used to cost 62.7k allocations,
	// and a buffered "1" per occurrence 1.29 MB after that.
	text := workload.NewTextGen(1).Block(0, 256<<10)
	if n, b := task(text, workload.PatternCountMapper{Prefix: "t"}, workload.SumReducer{}); n > 120 || b > 64<<10 {
		t.Errorf("wordcount over a 256 KB block: %.0f allocations of %.0f bytes, want <= 120 of <= 64 KB", n, b)
	}

	// Eight word counts sharing a pass pay for one word table and one
	// string per distinct word, for all of them, then each job's combine
	// table: nothing per occurrence.
	var jobs []mapreduce.MapJob
	for _, prefix := range workload.DistinctPrefixes(8) {
		jobs = append(jobs, mapreduce.MapJob{Mapper: workload.PatternCountMapper{Prefix: prefix}, Combiner: workload.SumReducer{}, Width: 2})
	}
	if n, b := measure(func() error {
		_, errs := mapPass(text, jobs)
		return errors.Join(errs...)
	}); n > 400 || b > 64<<10 {
		t.Errorf("eight word counts sharing a pass over a 256 KB block: %.0f allocations of %.0f bytes, want <= 400 of <= 64 KB", n, b)
	}

	// Selection pays for the rows it selects — one string each, holding
	// its key and its value, plus the growth of the partition slices —
	// and nothing per row.
	lineitem := workload.NewLineitemGen(1).Block(0, 256<<10)
	rows := len(refRows(lineitem))
	selected, _ := collect(workload.SelectionMapper{MaxQuantity: 5}, lineitem)
	if len(selected) == 0 || len(selected)*5 > rows {
		t.Fatalf("selected %d of %d rows, want about a tenth", len(selected), rows)
	}
	if n, _ := task(lineitem, workload.SelectionMapper{MaxQuantity: 5}, nil); n > float64(len(selected)+40) {
		t.Errorf("selection of %d rows out of %d: %.0f allocations, want <= %d", len(selected), rows, n, len(selected)+40)
	}
	if n, _ := task(lineitem, workload.SelectionMapper{MaxQuantity: 0}, nil); n > 8 {
		t.Errorf("selection rejecting all %d rows: %.0f allocations, want <= 8", rows, n)
	}
	if n, b := task(lineitem, workload.AggregationMapper{}, workload.SumReducer{}); n > 120 || b > 64<<10 {
		t.Errorf("aggregation over %d rows: %.0f allocations of %.0f bytes, want <= 120 of <= 64 KB", rows, n, b)
	}
}
