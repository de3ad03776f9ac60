package workload_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// One pass cuts a block into words for every word count of a merged task;
// each job must still emit what it emits alone. The checks below hold each
// job of a set of 1–16 word counts, on both candidate finders, to the
// per-occurrence reference (refPatternCount, which shares no code with the
// pass's word table): each distinct word it matches once, in order of
// first occurrence, with the count of the reference's emits of it. Each
// job's part of the merged task, with and without a combiner, is held to
// its one-job task.

// sharedPrefixes are what a set draws its prefixes from: the empty prefix,
// prefixes sharing a first byte, prefixes holding a separator, and bytes
// that are no separator though a careless test could take them for one.
var sharedPrefixes = []string{"", "t", "th", "the", "a", "w", "wh", "t h", "\t", "\x85", "\xc2\x85", "\xff", "\x00", "\x0b", "\x0c"}

// sharedAlphabet mixes the four separators with word bytes, among them
// 0x00, 0x0B, 0x0C and bytes >= 0x80.
var sharedAlphabet = []byte("ttthhhaawwe \n\t\r\x00\x0b\x0c\x85\xc2\xff")

// randomCounts is a set of 1–16 word counts, EmitFactor 0–3.
func randomCounts(rng *rand.Rand) []mapreduce.Mapper {
	mappers := make([]mapreduce.Mapper, 1+rng.Intn(16))
	for i := range mappers {
		mappers[i] = workload.PatternCountMapper{Prefix: sharedPrefixes[rng.Intn(len(sharedPrefixes))], EmitFactor: rng.Intn(4)}
	}
	return mappers
}

// counted is one emit of a shared pass: kv, standing for n emits.
type counted struct {
	kv mapreduce.KV
	n  int
}

// mapPass is one pass of a merged map task over data for jobs that share it.
func mapPass(data []byte, jobs []mapreduce.MapJob) ([][][]mapreduce.KV, []error) {
	parts, errs := make([][][]mapreduce.KV, len(jobs)), make([]error, len(jobs))
	mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs, parts, errs)
	return parts, errs
}

// checkSharedPass fails t unless every job of mappers emits over data, in
// one pass with the others, what the reference emits for it alone, and
// returns the length the pass's word table ended at.
func checkSharedPass(t *testing.T, data []byte, mappers []mapreduce.Mapper) (slots int) {
	t.Helper()
	want := make([][]counted, len(mappers))
	for j, m := range mappers {
		m := m.(workload.PatternCountMapper)
		at := map[string]int{}
		_ = refPatternCount(m.Prefix, m.EmitFactor)(dfs.BlockID{}, data, func(kv mapreduce.KV) { // the reference never fails
			k, ok := at[kv.Key]
			if !ok {
				k, at[kv.Key] = len(want[j]), len(want[j])
				want[j] = append(want[j], counted{kv, 0})
			}
			want[j][k].n++
		})
	}
	for _, byFirst := range []bool{true, false} {
		shared := make([][]counted, len(mappers))
		slots = workload.SharedWordCount(data, mappers, byFirst, func(j int, kv mapreduce.KV, n int) {
			shared[j] = append(shared[j], counted{kv, n})
		})
		if !reflect.DeepEqual(shared, want) {
			t.Fatalf("%q over %q, byFirst %v: one pass emits %v, the reference %v", mappers, data, byFirst, shared, want)
		}
	}
	for _, combiner := range []mapreduce.Reducer{workload.SumReducer{}, nil} {
		jobs := make([]mapreduce.MapJob, len(mappers))
		for j, m := range mappers {
			jobs[j] = mapreduce.MapJob{Mapper: m, Combiner: combiner, Width: 3}
		}
		parts, errs := mapPass(data, jobs)
		for j, m := range mappers {
			want, err := mapreduce.MapBlockForJob(dfs.BlockID{}, data, m, combiner, 3)
			if errs[j] != nil || err != nil || !reflect.DeepEqual(parts[j], want) {
				t.Fatalf("%q over %q, combiner %T: job %d's part of the merged task is %q (%v), its own task %q (%v)", mappers, data, combiner, j, parts[j], errs[j], want, err)
			}
		}
	}
	return slots
}

// wordTableEdges are blocks at the edges of the pass's word table and of
// its word-at-a-time walk: words holding NULs beside their prefix (one
// packed head, several lengths), words past eight bytes that share their
// first eight, words ending with fewer than eight bytes of block left,
// runs of separators and separators before the first word, words of
// exactly eight and nine bytes at the block's end and before a separator
// (an eight-byte word's load holds no separator), bytes >= 0x80 and
// control bytes beside separators, '!' (the byte above the separators)
// after one, and more distinct words than the table's first 256 slots
// hold half full, so it grows twice, and each of them again after that —
// short ones, and long ones of one head and one length, whose probes
// cross each other.
func wordTableEdges() [][]byte {
	var short, long []byte
	for i := 0; i < 600; i++ { // each word twice, the second time in the grown table
		short = fmt.Appendf(short, "t%d%c ", i%300, 'a'+i%300%26)
		long = fmt.Appendf(long, "thunders%03d\n", i%300)
	}
	return [][]byte{
		[]byte("a\x00 a a\x00\x00 a\x00 a\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("thunderstorm thunderstruck thunderstorms\tthunderstorm thunderstruck"),
		[]byte("the then\nthat th"),
		[]byte("a thunderstruck"),
		[]byte("\r\n  \tthe\r\nthat  \tthe\r\n\r\n"),
		[]byte("thunders thunderst thunders\tthunderst\nthunders"),
		[]byte("thunders thunderst"),
		[]byte("t\x85 \xc2\x85\n\xfft\t\xff \x85\r\xc2"),
		[]byte("t\x01 t\x1f\x0b\r\x00t \x0c !t\t!"),
		short,
		long,
	}
}

// Random sets over random bytes — lengths below and across the 8-byte
// loads, so words straddle them and tails are short — over the table's
// edges, and over generated text, where the frequent letters of
// DistinctPrefixes are the sets.
func TestSharedWordCountMatchesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(70))
		for b := range data {
			data[b] = sharedAlphabet[rng.Intn(len(sharedAlphabet))]
		}
		checkSharedPass(t, data, randomCounts(rng))
	}
	for _, data := range wordTableEdges() {
		for _, prefixes := range [][]string{{""}, {"t", "a"}, {"th", "thunderstr", "a\x00"}, {"t", "thunders", "\xc2", "\x85"}} {
			var mappers []mapreduce.Mapper
			for _, prefix := range prefixes {
				mappers = append(mappers, workload.PatternCountMapper{Prefix: prefix})
			}
			if slots := checkSharedPass(t, data, mappers); len(data) > 1000 && prefixes[0] == "" && slots != 1024 {
				t.Fatalf("300 distinct words end in a table of %d slots, want 1024", slots)
			}
		}
	}
	text := workload.NewTextGen(2).Block(0, 16<<10)
	for k := 1; k <= 16; k++ {
		var mappers []mapreduce.Mapper
		for _, prefix := range workload.DistinctPrefixes(k) {
			mappers = append(mappers, workload.PatternCountMapper{Prefix: prefix, EmitFactor: k % 3})
		}
		checkSharedPass(t, text[:len(text)-k], mappers)
	}
}

// FuzzSharedWordCount is TestSharedWordCountMatchesAlone on arbitrary
// bytes, the set drawn from the seed.
func FuzzSharedWordCount(f *testing.F) {
	f.Add([]byte("the thin\tthread\r\nwhat a w\x85h \x00t"), int64(1))
	f.Add([]byte("straddles eight byte loads"), int64(2))
	f.Add([]byte("t"), int64(3))
	f.Add([]byte(" \xc2\x85\xff\x0b\x0c\x00 t\x85 th"), int64(4))
	f.Add([]byte{}, int64(5))
	for i, data := range wordTableEdges() {
		f.Add(data, int64(6+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkSharedPass(t, data, randomCounts(rand.New(rand.NewSource(seed))))
	})
}
