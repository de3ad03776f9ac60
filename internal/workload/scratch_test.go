package workload_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// sortedSum is SumReducer's Reduce without its Fold: a combiner whose
// values are buffered and handed over sorted.
type sortedSum struct{ sum workload.SumReducer }

func (s sortedSum) Reduce(key string, values []string, emit mapreduce.Emit) error {
	return s.sum.Reduce(key, values, emit)
}

// failingFold folds like SumReducer until it meets the word fail.
type failingFold struct{ workload.SumReducer }

func (failingFold) Fold(key string, acc int64, value string, n int) (int64, error) {
	if key == "fail" {
		return 0, errors.New("fold refuses fail")
	}
	return acc + int64(n), nil
}

// failingReduce reduces like sortedSum until it meets the word fail, in
// the middle of its fold.
type failingReduce struct{ sortedSum }

func (f failingReduce) Reduce(key string, values []string, emit mapreduce.Emit) error {
	if key == "fail" {
		return errors.New("reduce refuses fail")
	}
	return f.sortedSum.Reduce(key, values, emit)
}

type scratchCase struct {
	name string
	data []byte
	jobs []mapreduce.MapJob
}

type passOutput struct {
	parts [][][]mapreduce.KV
	errs  []string
}

func runPass(c scratchCase) passOutput {
	parts, errs := mapPass(c.data, c.jobs)
	out := passOutput{parts: parts}
	for _, err := range errs {
		out.errs = append(out.errs, fmt.Sprint(err))
	}
	return out
}

// A pass's word table, combine tables and task slots are kept for the
// next pass; nothing of one pass may show in another. Every case is
// first run on fresh scratch — two collections empty the pools — and
// then all of them, over and over in a random order, on whatever the
// passes before left: blocks from empty to one whose word table outgrows
// what is kept, job sets of every size and prefix (the empty one, one
// holding a space), folding and buffering combiners, none, and combiners
// that fail in the middle of a pass.
func TestReusedScratchMatchesFresh(t *testing.T) {
	gen := workload.NewTextGen(7)
	var many strings.Builder // more distinct words than a kept table holds half full
	for i := 0; i < 1<<15/2+1; i++ {
		fmt.Fprintf(&many, "t%x ", i)
	}
	blocks := map[string][]byte{
		"0B":        nil,
		"4KB":       gen.Block(0, 4<<10),
		"256KB":     gen.Block(1, 256<<10),
		"past-cap":  []byte(many.String()),
		"with-fail": append(gen.Block(2, 4<<10), " fail tail fail"...),
	}
	jobSets := map[string][]string{
		"one":      {"t"},
		"eight":    workload.DistinctPrefixes(8),
		"sixteen":  workload.DistinctPrefixes(16),
		"mixed":    {"", "th", "a b", "t", "fa"},
		"empty":    {""},
		"spaceful": {"a b"},
	}
	combiners := map[string]mapreduce.Reducer{
		"fold": workload.SumReducer{}, "buffer": sortedSum{}, "none": nil,
		"fold-fails": failingFold{}, "reduce-fails": failingReduce{},
	}
	var cases []scratchCase
	for bn, data := range blocks {
		for jn, prefixes := range jobSets {
			for cn, combiner := range combiners {
				c := scratchCase{name: bn + "/" + jn + "/" + cn, data: data}
				for i, prefix := range prefixes {
					c.jobs = append(c.jobs, mapreduce.MapJob{Mapper: workload.PatternCountMapper{Prefix: prefix, EmitFactor: i%3 + 1}, Combiner: combiner, Width: i%3 + 1})
				}
				cases = append(cases, c)
			}
		}
	}
	want := make([]passOutput, len(cases))
	for i, c := range cases {
		runtime.GC()
		runtime.GC()
		want[i] = runPass(c)
	}
	failed := 0
	for _, w := range want {
		for _, err := range w.errs {
			if err != "<nil>" {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no case failed: the failing combiners were never met")
	}
	rng := rand.New(rand.NewSource(1))
	rounds := 2
	if testing.Short() || raceEnabled {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(cases)) {
			if got := runPass(cases[i]); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d, %s: on kept scratch %v, on fresh %v", r, cases[i].name, got.errs, want[i].errs)
			}
		}
	}
}

// A warmed pass of eight word counts over a 4 KB corpus block — an
// admit-durable worker's pass — allocates little besides its output: the
// parent of the kept scratch made 219 allocations a pass (its word and
// combine tables, their growth, the partitions' growth); with it, 95
// remain (a string per distinct word, each job's partitions and their
// one backing array, and the combine table's emit).
func TestWarmPassAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	data := workload.NewTextGen(1).Block(0, 4<<10)
	var jobs []mapreduce.MapJob
	for _, prefix := range workload.DistinctPrefixes(8) {
		jobs = append(jobs, mapreduce.MapJob{Mapper: workload.PatternCountMapper{Prefix: prefix}, Combiner: workload.SumReducer{}, Width: 2})
	}
	parts, errs := make([][][]mapreduce.KV, len(jobs)), make([]error, len(jobs))
	n := testing.AllocsPerRun(100, func() {
		mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs, parts, errs)
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n > 219/2 {
		t.Errorf("a warm pass of eight word counts over 4 KB made %.0f allocations, want at most %d (half the parent's 219)", n, 219/2)
	}
}
