package workload

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

func TestTextGenDeterministic(t *testing.T) {
	g1 := NewTextGen(42)
	g2 := NewTextGen(42)
	if !bytes.Equal(g1.Block(3, 1024), g2.Block(3, 1024)) {
		t.Error("same seed should produce identical blocks")
	}
	g3 := NewTextGen(43)
	if bytes.Equal(g1.Block(3, 1024), g3.Block(3, 1024)) {
		t.Error("different seeds should produce different blocks")
	}
	if bytes.Equal(g1.Block(0, 1024), g1.Block(1, 1024)) {
		t.Error("different blocks should differ")
	}
}

func TestTextGenExactSize(t *testing.T) {
	g := NewTextGen(1)
	for _, size := range []int64{1, 17, 256, 4096} {
		if got := len(g.Block(0, size)); int64(got) != size {
			t.Errorf("Block size = %d, want %d", got, size)
		}
	}
}

func TestTextGenWordsFromVocabulary(t *testing.T) {
	g := NewTextGen(7)
	vocab := map[string]bool{}
	for _, w := range wordList {
		vocab[w] = true
	}
	words := strings.Fields(string(g.Block(0, 2048)))
	if len(words) < 100 {
		t.Fatalf("only %d words in 2 KiB block", len(words))
	}
	for _, w := range words[:len(words)-1] { // last word may be cut by size truncation
		if !vocab[w] {
			t.Fatalf("word %q not in vocabulary", w)
		}
	}
}

func TestTextGenZipfSkew(t *testing.T) {
	// "the" (rank 1) must be much more frequent than a tail word.
	g := NewTextGen(11)
	words := strings.Fields(string(g.Block(0, 64<<10)))
	counts := map[string]int{}
	for _, w := range words {
		counts[w]++
	}
	if counts["the"] < 5*counts["house"] {
		t.Errorf("Zipf skew missing: the=%d house=%d", counts["the"], counts["house"])
	}
}

func TestAddTextFile(t *testing.T) {
	store := dfs.MustStore(2, 1)
	f, err := AddTextFile(store, "corpus", 4, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks != 4 {
		t.Fatalf("NumBlocks = %d", f.NumBlocks)
	}
	data, err := store.ReadBlock(dfs.BlockID{File: "corpus", Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 512 {
		t.Fatalf("block len = %d", len(data))
	}
}

func TestWordBoundaries(t *testing.T) {
	all := func(data string) []string {
		var got []string
		if err := (PatternCountMapper{}).Map(dfs.BlockID{}, []byte(data), func(kv mapreduce.KV) { got = append(got, kv.Key) }); err != nil {
			t.Fatal(err)
		}
		if n := (PatternCountMapper{}).CountInputRecords([]byte(data)); n != int64(len(got)) {
			t.Errorf("%q: %d input records, %d words", data, n, len(got))
		}
		return got
	}
	if got, want := all("  the quick\nbrown\tfox\r\n"), "the,quick,brown,fox"; strings.Join(got, ",") != want {
		t.Errorf("words = %v, want %v", got, want)
	}
	if got := all(""); len(got) != 0 {
		t.Errorf("empty input yielded %v", got)
	}
	// No trailing separator: final word still reported.
	if got := all("abc"); len(got) != 1 || got[0] != "abc" {
		t.Errorf("words = %v", got)
	}
	// A prefix matches at a word start only, and never across a separator.
	var got []string
	emit := func(kv mapreduce.KV) { got = append(got, kv.Key) }
	for _, prefix := range []string{"th", "the other", "there-and-more"} {
		if err := (PatternCountMapper{Prefix: prefix}).Map(dfs.BlockID{}, []byte("the other bathe th\tthere"), emit); err != nil {
			t.Fatal(err)
		}
	}
	if want := "the,th,there"; strings.Join(got, ",") != want {
		t.Errorf("prefix matches = %v, want %v", got, want)
	}
}

func TestPatternCountJobEndToEnd(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := AddTextFile(store, "corpus", 4, 2048, 5); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.RunJob(store, WordCountJob("wc-t", "corpus", "t", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("prefix 't' matched nothing")
	}
	total := int64(0)
	for _, kv := range res.Output {
		if !strings.HasPrefix(kv.Key, "t") {
			t.Errorf("output word %q does not match prefix", kv.Key)
		}
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// Cross-check against a direct scan of the corpus.
	want := int64(0)
	g := NewTextGen(5)
	for i := 0; i < 4; i++ {
		for _, w := range strings.Fields(string(g.Block(i, 2048))) {
			if strings.HasPrefix(w, "t") {
				want++
			}
		}
	}
	if total != want {
		t.Errorf("counted %d words, direct scan says %d", total, want)
	}
}

func TestHeavyJobMultipliesMapOutput(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := AddTextFile(store, "corpus", 2, 1024, 5); err != nil {
		t.Fatal(err)
	}
	normal, err := mapreduce.RunJob(store, WordCountJob("n", "corpus", "t", 1))
	if err != nil {
		t.Fatal(err)
	}
	heavySpec := WordCountJob("h", "corpus", "t", 1) // the heavy workload: 10x the map output, no combiner
	heavySpec.Mapper, heavySpec.Combiner = PatternCountMapper{Prefix: "t", EmitFactor: 10}, nil
	heavy, err := mapreduce.RunJob(store, heavySpec)
	if err != nil {
		t.Fatal(err)
	}
	nOut := normal.Counters.Get(mapreduce.CounterMapOutputRecords)
	hOut := heavy.Counters.Get(mapreduce.CounterMapOutputRecords)
	if hOut != 10*nOut {
		t.Errorf("heavy map output = %d, want 10x normal (%d)", hOut, nOut)
	}
	// Counts are scaled by the factor too (each word counted 10x).
	if normal.Output[0].Key != heavy.Output[0].Key {
		t.Errorf("heavy output keys diverge: %v vs %v", normal.Output[0], heavy.Output[0])
	}
}

func TestSumReducerRejectsGarbage(t *testing.T) {
	err := SumReducer{}.Reduce("w", []string{"1", "x"}, func(mapreduce.KV) {})
	if err == nil {
		t.Error("non-numeric value should fail")
	}
	// As a combiner it meets the value while the mapper is still running:
	// the task fails all the same, naming it, and returns no partition.
	rows := []byte("1|2|3|1|4|x|x|x|R|O|d\n2|2|3|1|4.5|x|x|x|A|F|d\n3|2|3|1|6|x|x|x|R|O|d\n")
	parts, err := mapreduce.MapBlockForJob(dfs.BlockID{}, rows, AggregationMapper{}, SumReducer{}, 2)
	var numErr *strconv.NumError
	if parts != nil || err == nil || !strings.HasPrefix(err.Error(), "combiner: ") ||
		!strings.Contains(err.Error(), `"4.5"`) || !errors.As(err, &numErr) {
		t.Errorf("partitions %v, err %v; want none and a combiner error naming \"4.5\"", parts, err)
	}
}

func TestDistinctPrefixes(t *testing.T) {
	p := DistinctPrefixes(20)
	if len(p) != 20 {
		t.Fatalf("len = %d", len(p))
	}
	seen := map[string]bool{}
	for _, s := range p[:10] {
		if seen[s] {
			t.Errorf("prefix %q repeats within first 10", s)
		}
		seen[s] = true
	}
}

func TestLineitemDeterministicAndShaped(t *testing.T) {
	g1 := NewLineitemGen(3)
	g2 := NewLineitemGen(3)
	b1 := g1.Block(0, 4096)
	if !bytes.Equal(b1, g2.Block(0, 4096)) {
		t.Error("lineitem generation not deterministic")
	}
	if len(b1) != 4096 {
		t.Fatalf("block len = %d, want 4096 (padded)", len(b1))
	}
	rows := 0
	for _, line := range bytes.Split(b1, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rows++
		cols := bytes.Split(line, []byte{'|'})
		if len(cols) != 16 {
			t.Fatalf("row has %d columns, want 16: %q", len(cols), line)
		}
		qty := quantity(t, line)
		if qty < 1 || qty > QuantityMax {
			t.Fatalf("quantity %d out of range", qty)
		}
	}
	if rows < 10 {
		t.Fatalf("only %d rows in 4 KiB block", rows)
	}
}

// quantity reads l_quantity, the fifth column of a lineitem row.
func quantity(t *testing.T, row []byte) int {
	t.Helper()
	qty, err := strconv.Atoi(string(bytes.Split(row, []byte{'|'})[4]))
	if err != nil {
		t.Fatal(err)
	}
	return qty
}

func TestSelectionJobSelectivity(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := AddLineitemFile(store, "lineitem", 6, 16<<10, 17); err != nil {
		t.Fatal(err)
	}
	// MaxQuantity 5 of uniform 1..50 -> ~10% selectivity (paper §V-G).
	res, err := mapreduce.RunJob(store, mapreduce.JobSpec{Name: "sel", File: "lineitem", Mapper: SelectionMapper{MaxQuantity: 5}})
	if err != nil {
		t.Fatal(err)
	}
	in := res.Counters.Get(mapreduce.CounterMapInputRecords)
	out := res.Counters.Get(mapreduce.CounterMapOutputRecords)
	if in == 0 {
		t.Fatal("no input rows")
	}
	sel := float64(out) / float64(in)
	if sel < 0.06 || sel > 0.14 {
		t.Errorf("selectivity = %.3f (%d/%d), want ~0.10", sel, out, in)
	}
	// Every selected row satisfies the predicate.
	for _, kv := range res.Output {
		if qty := quantity(t, []byte(kv.Value)); qty > 5 {
			t.Fatalf("selected row has quantity %d > 5", qty)
		}
	}
}

func TestSelectionMapperMalformedRow(t *testing.T) {
	m := SelectionMapper{MaxQuantity: 5}
	err := m.Map(dfs.BlockID{}, []byte("not|enough|columns\n"), func(mapreduce.KV) {})
	if err == nil {
		t.Error("malformed row should fail")
	}
	err = m.Map(dfs.BlockID{}, []byte("1|2|3|4|notanumber|x\n"), func(mapreduce.KV) {})
	if err == nil {
		t.Error("non-numeric quantity should fail")
	}
}

func TestDensePattern(t *testing.T) {
	times := DensePattern(4, 2)
	want := []float64{0, 2, 4, 6}
	for i, w := range want {
		if float64(times[i]) != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSparseGroupsPaperShape(t *testing.T) {
	// 10 jobs in three groups of 3, 3, 4 (paper §V-D).
	times := SparseGroups([]int{3, 3, 4}, 5, 400)
	if len(times) != 10 {
		t.Fatalf("len = %d, want 10", len(times))
	}
	// Group starts at 0, 400, 800.
	if times[0] != 0 || times[3] != 400 || times[6] != 800 {
		t.Errorf("group starts = %v/%v/%v, want 0/400/800", times[0], times[3], times[6])
	}
	if times[2] != 10 || times[9] != 815 {
		t.Errorf("intra-group spacing wrong: %v", times)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("arrivals not monotone: %v", times)
		}
	}
}

func TestPatternPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { DensePattern(0, 1) },
		func() { DensePattern(3, -1) },
		func() { SparseGroups(nil, 1, 1) },
		func() { SparseGroups([]int{2, 0}, 1, 1) },
		func() { SparseGroups([]int{2}, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTextBlockProperty(t *testing.T) {
	vocab := map[string]bool{}
	for _, w := range wordList {
		vocab[w] = true
	}
	prop := func(seed int64, idx8 uint8, size16 uint16) bool {
		size := int64(size16%4096) + 64
		g := NewTextGen(seed)
		words := strings.Fields(string(g.Block(int(idx8), size)))
		if len(words) == 0 {
			return false
		}
		for _, w := range words[:len(words)-1] {
			if !vocab[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAggregationJobQ1Style(t *testing.T) {
	store := dfs.MustStore(2, 1)
	if _, err := AddLineitemFile(store, "lineitem", 6, 16<<10, 23); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.RunJob(store, mapreduce.JobSpec{Name: "q1", File: "lineitem", Mapper: AggregationMapper{}, Reducer: SumReducer{}, Combiner: SumReducer{}, NumReduce: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 3 return flags x 2 line statuses = 6 groups.
	if len(res.Output) != 6 {
		t.Fatalf("groups = %d, want 6: %v", len(res.Output), res.Output)
	}
	// Cross-check the total against a direct scan.
	var want int64
	g := NewLineitemGen(23)
	for i := 0; i < 6; i++ {
		for _, line := range bytes.Split(g.Block(i, 16<<10), []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			want += int64(quantity(t, line))
		}
	}
	var got int64
	for _, kv := range res.Output {
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	if got != want {
		t.Fatalf("aggregated quantity %d != direct scan %d", got, want)
	}
}

func TestAggregationMapperMalformed(t *testing.T) {
	err := AggregationMapper{}.Map(dfs.BlockID{}, []byte("a|b|c\n"), func(mapreduce.KV) {})
	if err == nil {
		t.Error("short row should fail")
	}
}

func TestPoissonPattern(t *testing.T) {
	times := PoissonPattern(200, 10, 3)
	if len(times) != 200 || times[0] != 0 {
		t.Fatalf("times = %d entries, first %v", len(times), times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("arrivals not monotone")
		}
	}
	// Mean gap should be near 10 over 200 samples.
	meanGap := float64(times[len(times)-1]) / float64(len(times)-1)
	if meanGap < 7 || meanGap > 13 {
		t.Errorf("mean gap = %.2f, want ~10", meanGap)
	}
	// Deterministic per seed.
	again := PoissonPattern(200, 10, 3)
	for i := range times {
		if times[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	for _, fn := range []func(){
		func() { PoissonPattern(0, 1, 1) },
		func() { PoissonPattern(3, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSyntheticVocabulary(t *testing.T) {
	v := SyntheticVocabulary(5000)
	if len(v) != 5000 {
		t.Fatalf("size = %d", len(v))
	}
	seen := map[string]bool{}
	for _, w := range v {
		if w == "" || seen[w] {
			t.Fatalf("duplicate or empty word %q", w)
		}
		seen[w] = true
	}
	// Head is the readable English list.
	if v[0] != "the" {
		t.Errorf("v[0] = %q", v[0])
	}
	// Small sizes truncate the built-in list.
	if got := SyntheticVocabulary(3); len(got) != 3 || got[0] != "the" {
		t.Errorf("small vocab = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero size should panic")
		}
	}()
	SyntheticVocabulary(0)
}

func TestTextGenVocabDistinctWords(t *testing.T) {
	g := NewTextGenVocab(5, 20000)
	words := map[string]bool{}
	for i := 0; i < 16; i++ {
		for _, w := range strings.Fields(string(g.Block(i, 32<<10))) {
			words[w] = true
		}
	}
	// Zipf over a 20k vocabulary in ~100k tokens: thousands of
	// distinct words, like natural text — not the ~110 of the demo
	// vocabulary.
	if len(words) < 2000 {
		t.Errorf("distinct words = %d, want thousands", len(words))
	}
	// Determinism.
	g2 := NewTextGenVocab(5, 20000)
	if !bytes.Equal(g.Block(0, 1024), g2.Block(0, 1024)) {
		t.Error("vocab generator not deterministic")
	}
}
