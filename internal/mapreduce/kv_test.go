package mapreduce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
)

func TestSortKVs(t *testing.T) {
	kvs := []KV{{"b", "2"}, {"a", "9"}, {"b", "1"}, {"a", "1"}}
	sortKVs(kvs)
	want := []KV{{"a", "1"}, {"a", "9"}, {"b", "1"}, {"b", "2"}}
	if fmt.Sprint(kvs) != fmt.Sprint(want) {
		t.Fatalf("sorted = %v, want %v", kvs, want)
	}
}

// refSortKVs is the sort sortKVs replaced: pdqsort on compareKV.
func refSortKVs(kvs []KV) { slices.SortFunc(kvs, compareKV) }

// randomKVs draws n records whose keys are built to meet every case of
// the head sort: shorter than, as long as and longer than the 8-byte
// head; equal in their first 8 bytes; "a" beside "a\x00" (zero padding
// ties them); empty; and repeated with different values.
func randomKVs(rng *rand.Rand, n int) []KV {
	stems := []string{"", "a", "a\x00", "a\x00\x00", "ab", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\x00", "\xff\xff\xff\xff\xff\xff\xff\xff", "1600123."}
	kvs := make([]KV, n)
	for i := range kvs {
		key := stems[rng.Intn(len(stems))]
		if rng.Intn(2) == 0 { // a key of its own: heads that split into buckets on every byte
			key = ""
		}
		for tail := rng.Intn(12); tail > 0; tail-- {
			key += string("\x00a\xffz"[rng.Intn(4)])
		}
		kvs[i] = KV{Key: key, Value: fmt.Sprint(rng.Intn(3))}
	}
	return kvs
}

// sortKVs orders exactly as pdqsort on compareKV does, on both sides of
// radixMin, and so does MergeSorted, which sorts its unsorted runs with
// it.
func TestSortKVsMatchesCompareKV(t *testing.T) {
	check := func(name string, kvs []KV) {
		t.Helper()
		want := slices.Clone(kvs)
		refSortKVs(want)
		got := slices.Clone(kvs)
		sortKVs(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sortKVs gave %q, compareKV %q", name, got, want)
		}
	}
	check("zero padding", []KV{{"a\x00", "1"}, {"a", "2"}, {"", "0"}, {"a\x00", "0"}, {"a", "1"}, {"", ""}})
	check("first 8 bytes equal", []KV{{"abcdefghz", "1"}, {"abcdefgh", "1"}, {"abcdefgha", "2"}, {"abcdefgha", "1"}})
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{0, 1, 2, 3, 17, radixMin - 1, radixMin, radixMin + 1, 4 * radixMin, 40 * radixMin} {
		for i := 0; i < 20; i++ {
			check(fmt.Sprintf("%d records, draw %d", n, i), randomKVs(rng, n))
		}
	}
	for i := 0; i < 50; i++ {
		runs := make([][]KV, 1+rng.Intn(4))
		var want []KV
		for r := range runs {
			runs[r] = randomKVs(rng, rng.Intn(2*radixMin))
			want = append(want, runs[r]...)
		}
		refSortKVs(want)
		if got := MergeSorted(runs); len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeSorted of %d unsorted runs differs from concat + compareKV sort", len(runs))
		}
	}
}

// FuzzSortKVs: on any records sortKVs orders as pdqsort on compareKV.
// The fuzzer's bytes are cut into keys at each '\n' (values at '\t'),
// repeated to reach past radixMin when long is set.
func FuzzSortKVs(f *testing.F) {
	f.Add([]byte("a\na\x00\n\nabcdefgh\nabcdefghi\tx\nabcdefgh\x00"), false)
	f.Add([]byte("b\t2\na\t9\nb\t1\na\t1"), true)
	f.Add([]byte("1600123.4\t\xff\n1600123.1\n160012\n"), true)
	f.Fuzz(func(t *testing.T, data []byte, long bool) {
		var kvs []KV
		for _, line := range strings.Split(string(data), "\n") {
			key, value, _ := strings.Cut(line, "\t")
			kvs = append(kvs, KV{Key: key, Value: value})
		}
		for long && len(kvs) < radixMin {
			kvs = append(kvs, kvs...)
		}
		want := slices.Clone(kvs)
		refSortKVs(want)
		sortKVs(kvs)
		if !reflect.DeepEqual(kvs, want) {
			t.Fatalf("sortKVs gave %q, compareKV %q", kvs, want)
		}
	})
}

func TestGroupByKey(t *testing.T) {
	kvs := []KV{{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"}, {"c", "6"}}
	var groups []string
	err := groupByKey(kvs, func(key string, values []string) error {
		groups = append(groups, fmt.Sprintf("%s:%s", key, strings.Join(values, ",")))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1,2", "b:3", "c:4,5,6"}
	if fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
}

func TestGroupByKeyEmpty(t *testing.T) {
	called := false
	if err := groupByKey(nil, func(string, []string) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called on empty input")
	}
}

func TestGroupByKeyError(t *testing.T) {
	boom := errors.New("x")
	err := groupByKey([]KV{{"a", "1"}}, func(string, []string) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// Property: grouping a sorted record set preserves every value exactly
// once and yields strictly increasing keys.
func TestGroupByKeyProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8 % 64)
		kvs := make([]KV, n)
		for i := range kvs {
			kvs[i] = KV{
				Key:   fmt.Sprintf("k%d", rng.Intn(8)),
				Value: fmt.Sprintf("v%d", i),
			}
		}
		sortKVs(kvs)
		var keys []string
		total := 0
		err := groupByKey(kvs, func(key string, values []string) error {
			keys = append(keys, key)
			total += len(values)
			return nil
		})
		if err != nil || total != n {
			return false
		}
		return sort.StringsAreSorted(keys) && len(keys) == len(uniq(keys))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func uniq(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestPartitionOf(t *testing.T) {
	if partitionOf("anything", 1) != 0 {
		t.Error("width 1 must always map to partition 0")
	}
	// Deterministic.
	if partitionOf("key", 7) != partitionOf("key", 7) {
		t.Error("partitionOf not deterministic")
	}
}

// Property: a map task without a combiner splits records without loss,
// in emit order, and each record lands in the partition its key hashes
// to.
func TestPartitionProperty(t *testing.T) {
	prop := func(seed int64, width8 uint8) bool {
		width := int(width8%8) + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		kvs := make([]KV, n)
		for i := range kvs {
			kvs[i] = KV{Key: fmt.Sprintf("k%d", rng.Intn(20)), Value: fmt.Sprint(i)}
		}
		parts, err := MapBlockForJob(dfs.BlockID{}, nil, emitAll(kvs), nil, width)
		if err != nil || len(parts) != width {
			return false
		}
		return reflect.DeepEqual(parts, refPartition(kvs, width))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// emitAll is a mapper that ignores its block and emits kvs in order.
func emitAll(kvs []KV) Mapper {
	return MapperFunc(func(_ dfs.BlockID, _ []byte, emit Emit) error {
		for _, kv := range kvs {
			emit(kv)
		}
		return nil
	})
}

// refPartition and refCombine are the map task as it was first
// written: hash/fnv partitioning, and a combine that sorts the raw
// output by (key, value) and groups the sorted run. The combine table
// and the inline hash must stay indistinguishable from them.
func refPartition(kvs []KV, width int) [][]KV {
	out := make([][]KV, width)
	for _, kv := range kvs {
		h := fnv.New32a()
		h.Write([]byte(kv.Key))
		p := int(h.Sum32() % uint32(width))
		out[p] = append(out[p], kv)
	}
	return out
}

func refCombine(raw []KV, combiner Reducer) ([]KV, error) {
	sorted := append([]KV(nil), raw...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].Value < sorted[j].Value
	})
	var combined []KV
	err := groupByKey(sorted, func(key string, values []string) error {
		return combiner.Reduce(key, values, func(kv KV) { combined = append(combined, kv) })
	})
	return combined, err
}

// Property: partitionOf is hash/fnv's 32-bit FNV-1a modulo the width,
// for any key bytes (empty, non-UTF-8, long) and any width.
func TestPartitionOfMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		key := make([]byte, rng.Intn(40))
		rng.Read(key)
		width := rng.Intn(64) + 1
		h := fnv.New32a()
		h.Write(key)
		if got, want := partitionOf(string(key), width), int(h.Sum32()%uint32(width)); got != want {
			t.Fatalf("partitionOf(%q, %d) = %d, hash/fnv says %d", key, width, got, want)
		}
	}
}

// concatReducer is order-sensitive on purpose: it emits its values
// joined in the order received, plus a record under a foreign key, so
// any difference in group order or value order shows in the output.
type concatReducer struct{}

func (concatReducer) Reduce(key string, values []string, emit Emit) error {
	emit(KV{Key: key, Value: strings.Join(values, ",")})
	emit(KV{Key: "n" + fmt.Sprint(len(values)), Value: key})
	return nil
}

// foldingSum is sumReducer under the Folder contract: the map task
// keeps one running total per key where sumReducer is handed the values.
type foldingSum struct{ sumReducer }

func (foldingSum) Fold(key string, acc int64, value string, n int) (int64, error) {
	v, err := strconv.Atoi(value)
	if err != nil {
		return 0, fmt.Errorf("value %q of key %q: %w", value, key, err)
	}
	return acc + int64(n*v), nil
}

func (foldingSum) Unfold(key string, acc int64, emit Emit) {
	emit(KV{Key: key, Value: strconv.FormatInt(acc, 10)})
}

// Property: combining while mapping is record for record the old
// sort-then-group combine, through the whole map task (combine, then
// partition) and through Running.Compact — for a combiner that folds,
// for the same sum without the contract, and for an order-sensitive one
// that could not fold. Folding moves no counter either.
func TestGroupedCombineMatchesSortThenGroup(t *testing.T) {
	prop := func(seed int64, n8, width8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		width := int(width8%5) + 1
		raw := make([]KV, int(n8))
		for i := range raw {
			// Few keys (the empty one among them) and few values, so
			// groups are large and duplicate values common.
			raw[i] = KV{Key: strings.Repeat("k", rng.Intn(4)), Value: fmt.Sprint(rng.Intn(5))}
		}
		for _, combiner := range []Reducer{sumReducer{}, foldingSum{}, concatReducer{}} {
			want, err := refCombine(raw, combiner)
			if err != nil {
				return false
			}
			got, err := MapBlockForJob(dfs.BlockID{}, nil, emitAll(raw), combiner, width)
			if err != nil || !reflect.DeepEqual(got, refPartition(want, width)) {
				return false
			}
			job, err := NewRunning(JobSpec{Name: "j", File: "f", Mapper: emitAll(raw)})
			if err != nil {
				return false
			}
			if job.MapBlock(dfs.BlockID{}, nil) != nil || job.Compact(combiner) != nil {
				return false
			}
			if compacted := job.seal()[0]; len(compacted)+len(want) > 0 && !reflect.DeepEqual(compacted, want) {
				return false
			}
		}
		var buffered, folded taskCounts
		mapTask(dfs.BlockID{}, nil, []MapJob{{emitAll(raw), sumReducer{}, width}}, func(_ int, t *jobTask) { buffered = t.counts })
		mapTask(dfs.BlockID{}, nil, []MapJob{{emitAll(raw), foldingSum{}, width}}, func(_ int, t *jobTask) { folded = t.counts })
		return folded == buffered && folded.outputRecords == int64(len(raw)) && folded.combinerApplied == (len(raw) > 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCombineHelper(t *testing.T) {
	records := []KV{{"b", "1"}, {"a", "1"}, {"a", "2"}, {"a", "1"}}
	fold := func(combiner Reducer) ([]KV, error) {
		table := newCombineTable(combiner)
		for _, kv := range records {
			table.add(kv, 1)
		}
		out := make([][]KV, 1)
		err := table.fold(out)
		return out[0], err
	}
	for _, combiner := range []Reducer{sumReducer{}, foldingSum{}} {
		out, err := fold(combiner)
		if want := []KV{{"a", "4"}, {"b", "1"}}; err != nil || fmt.Sprint(out) != fmt.Sprint(want) {
			t.Fatalf("%T: combine = %v, %v, want %v", combiner, out, err, want)
		}
	}
	boom := errors.New("x")
	if _, err := fold(ReducerFunc(func(string, []string, Emit) error { return boom })); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// A table keeps its index between passes while no later pass would clear
// a map far larger than its own, and drops it after a failed pass.
func TestCombineTableKeepsSmallIndex(t *testing.T) {
	pass := func(table *combineTable, groups int, failed bool) {
		table.reset(foldingSum{})
		for i := 0; i < groups; i++ {
			table.add(KV{strconv.Itoa(i), "1"}, 1)
		}
		table.empty(failed)
	}
	var table combineTable
	for _, step := range []struct {
		groups int
		failed bool
		kept   bool
	}{
		{10, false, true},
		{smallIndex, false, true},
		{1, false, true}, // an index of smallIndex groups is small
		{4 * smallIndex, false, true},
		{smallIndex, false, true}, // a quarter of what it held
		{smallIndex - 1, false, false},
		{10, false, true},
		{10, true, false},
		{maxKeptGroups + 1, false, false},
	} {
		pass(&table, step.groups, step.failed)
		if kept := table.index != nil; kept != step.kept || len(table.index) != 0 || len(table.groups) != 0 {
			t.Fatalf("after %d groups (failed %v): index kept %v with %d keys, %d groups; want kept %v and empty", step.groups, step.failed, kept, len(table.index), len(table.groups), step.kept)
		}
	}
}

// emitTimes is a SharedMapper that emits each of its records as n copies
// in one call, as a word count emits a word it counted n times.
type emitTimes struct {
	records []KV
	n       int
}

func (m emitTimes) Map(b dfs.BlockID, data []byte, emit Emit) error {
	return m.MapShared(b, data, nil, func(_ int, kv KV, n int) {
		for ; n > 0; n-- {
			emit(kv)
		}
	})
}

func (emitTimes) SharesPass(Mapper) bool { return false }

func (m emitTimes) MapShared(_ dfs.BlockID, _ []byte, _ []Mapper, emit func(int, KV, int)) error {
	for _, kv := range m.records {
		emit(0, kv, m.n)
	}
	return nil
}

// A value the Folder rejects fails the task as a combiner error naming
// it, and nothing is emitted: not the keys folded before it, not the
// ones after — whether it comes as one copy or as n in one emit.
func TestRejectedFoldFailsTheTask(t *testing.T) {
	raw := []KV{{"a", "1"}, {"b", "seven"}, {"a", "2"}, {"c", "3"}}
	var numErr *strconv.NumError
	for _, mapper := range []Mapper{emitAll(raw), emitTimes{raw, 3}} {
		parts, err := MapBlockForJob(dfs.BlockID{}, nil, mapper, foldingSum{}, 2)
		if parts != nil || err == nil || !strings.HasPrefix(err.Error(), "combiner: ") ||
			!strings.Contains(err.Error(), `"seven"`) || !errors.As(err, &numErr) {
			t.Fatalf("%T: partitions %v, err %v; want none and a combiner error naming \"seven\"", mapper, parts, err)
		}
	}
	_, wantErr := MapBlockForJob(dfs.BlockID{}, nil, emitAll(raw), sumReducer{}, 2)
	if wantErr == nil || !strings.HasPrefix(wantErr.Error(), "combiner: ") || !errors.As(wantErr, &numErr) {
		t.Fatalf("buffered combine failed with %v, want the same kind of error", wantErr)
	}

	job, err := NewRunning(JobSpec{Name: "j", File: "f", Mapper: emitAll(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.MapBlock(dfs.BlockID{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := job.Compact(foldingSum{}); err == nil || !strings.Contains(err.Error(), `"seven"`) {
		t.Fatalf("Compact err = %v, want one naming \"seven\"", err)
	}
	if got := job.seal()[0]; !reflect.DeepEqual(got, raw) {
		t.Fatalf("a failed Compact left %v, want the records untouched", got)
	}
}

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("x", 2)
	c.Add("x", 3)
	c.Add("y", 1)
	if c.Get("x") != 5 || c.Get("y") != 1 || c.Get("z") != 0 {
		t.Fatalf("counters = %v", c.Snapshot())
	}
	s := c.String()
	for _, name := range []string{"x", "y"} {
		if !strings.Contains(s, name) {
			t.Errorf("String() missing %q:\n%s", name, s)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("n"); got != 800 {
		t.Fatalf("n = %d, want 800", got)
	}
}

func TestKVBytes(t *testing.T) {
	if got := kvBytes([]KV{{"ab", "c"}, {"", "xyz"}}); got != 6 {
		t.Fatalf("kvBytes = %d, want 6", got)
	}
	if kvBytes(nil) != 0 {
		t.Fatal("kvBytes(nil) != 0")
	}
}

// MergeSorted is concat-then-sort by another route: for sorted runs, an
// unsorted run, (key, value) pairs repeated within and across runs,
// empty runs among the others, one run, and no records at all — and it
// neither reorders nor returns its inputs.
func TestMergeSortedMatchesConcatSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(name string, runs [][]KV) {
		t.Helper()
		var want []KV
		snapshot := make([][]KV, len(runs))
		for i, run := range runs {
			want = append(want, run...)
			snapshot[i] = append([]KV(nil), run...)
		}
		sortKVs(want)
		got := MergeSorted(runs)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: merged %d records differ from the %d of concat + sort", name, len(got), len(want))
		}
		if fmt.Sprint(runs) != fmt.Sprint(snapshot) {
			t.Fatalf("%s: MergeSorted changed its input", name)
		}
		for _, run := range runs {
			if len(run) > 0 && len(got) > 0 && &run[0] == &got[0] {
				t.Fatalf("%s: MergeSorted returned one of its inputs", name)
			}
		}
	}
	check("no runs", nil)
	check("all empty", [][]KV{nil, {}, nil})
	check("one unsorted run", [][]KV{{{"b", "1"}, {"a", "2"}, {"a", "1"}}})
	for i := 0; i < 200; i++ {
		runs := make([][]KV, rng.Intn(7))
		for r := range runs {
			for n := rng.Intn(30); n > 0; n-- { // few keys and values: duplicates everywhere
				runs[r] = append(runs[r], KV{Key: fmt.Sprint(rng.Intn(6)), Value: fmt.Sprint(rng.Intn(3))})
			}
			if rng.Intn(4) > 0 {
				sortKVs(runs[r])
			}
		}
		check(fmt.Sprintf("random %d", i), runs)
	}
}
