package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// One pass cuts a block into words for every word count of a merged task;
// each job must still emit what it emits alone. The checks below hold each
// job of a set of 1–16 word counts to its one-mapper Map, emits and their
// order included, on both candidate finders, and each job's part of the
// merged task, with and without a combiner, to its one-job task. Map is
// held to the reference tokenizer by FuzzMappers.

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
		mappers[i] = PatternCountMapper{Prefix: sharedPrefixes[rng.Intn(len(sharedPrefixes))], EmitFactor: rng.Intn(4)}
	}
	return mappers
}

// checkSharedPass fails t unless every job of mappers emits over data, in
// one pass with the others, what it emits alone.
func checkSharedPass(t *testing.T, data []byte, mappers []mapreduce.Mapper) {
	t.Helper()
	alone := make([][]mapreduce.KV, len(mappers))
	for j, m := range mappers {
		if err := m.Map(dfs.BlockID{}, data, func(kv mapreduce.KV) { alone[j] = append(alone[j], kv) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, byFirst := range []bool{true, false} {
		p := newWordPass(mappers)
		p.count(data, byFirst)
		shared := make([][]mapreduce.KV, len(mappers))
		p.emit(func(j int, kv mapreduce.KV, n int) {
			for ; n > 0; n-- {
				shared[j] = append(shared[j], kv)
			}
		})
		if !reflect.DeepEqual(shared, alone) {
			t.Fatalf("%q over %q, byFirst %v: one pass emits %q, the jobs alone %q", mappers, data, byFirst, shared, alone)
		}
	}
	for _, combiner := range []mapreduce.Reducer{SumReducer{}, nil} {
		jobs := make([]mapreduce.MapJob, len(mappers))
		for j, m := range mappers {
			jobs[j] = mapreduce.MapJob{Mapper: m, Combiner: combiner, Width: 3}
		}
		parts, errs := mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs)
		for j, m := range mappers {
			want, err := mapreduce.MapBlockForJob(dfs.BlockID{}, data, m, combiner, 3)
			if errs[j] != nil || err != nil || !reflect.DeepEqual(parts[j], want) {
				t.Fatalf("%q over %q, combiner %T: job %d's part of the merged task is %q (%v), its own task %q (%v)", mappers, data, combiner, j, parts[j], errs[j], want, err)
			}
		}
	}
}

// Random sets over random bytes — lengths below and across the 8-byte
// loads, so words straddle them and tails are short — and over generated
// text, where the frequent letters of DistinctPrefixes are the sets.
func TestSharedWordCountMatchesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(70))
		for b := range data {
			data[b] = sharedAlphabet[rng.Intn(len(sharedAlphabet))]
		}
		checkSharedPass(t, data, randomCounts(rng))
	}
	text := NewTextGen(2).Block(0, 16<<10)
	for k := 1; k <= 16; k++ {
		var mappers []mapreduce.Mapper
		for _, prefix := range DistinctPrefixes(k) {
			mappers = append(mappers, PatternCountMapper{Prefix: prefix, EmitFactor: k % 3})
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
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkSharedPass(t, data, randomCounts(rand.New(rand.NewSource(seed))))
	})
}
