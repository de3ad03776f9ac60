package mapreduce_test

import (
	"reflect"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// countingSum is workload.SumReducer counting its Fold calls.
type countingSum struct {
	workload.SumReducer
	folds *int
}

func (c countingSum) Fold(key string, acc int64, value string, n int) (int64, error) {
	*c.folds++
	return c.SumReducer.Fold(key, acc, value, n)
}

// A shared word-count pass hands each job each distinct word it matches
// once, standing for all its occurrences, and the combine table folds
// that in one call: Fold runs once per (distinct word, job), not once per
// occurrence, and the partitions are the plain sum's.
func TestFoldOncePerDistinctWord(t *testing.T) {
	data := workload.NewTextGen(1).Block(0, 256<<10)
	folds := 0
	prefixes := workload.DistinctPrefixes(8)
	jobs := make([]mapreduce.MapJob, len(prefixes))
	distinct, occurrences := 0, 0
	for j, prefix := range prefixes {
		jobs[j] = mapreduce.MapJob{Mapper: workload.PatternCountMapper{Prefix: prefix}, Combiner: countingSum{folds: &folds}, Width: 2}
		seen := map[string]bool{}
		for _, w := range strings.Fields(string(data)) {
			if strings.HasPrefix(w, prefix) {
				occurrences++
				if !seen[w] {
					seen[w] = true
					distinct++
				}
			}
		}
	}
	parts, errs := make([][][]mapreduce.KV, len(jobs)), make([]error, len(jobs))
	mapreduce.MapBlockForJobs(dfs.BlockID{}, data, jobs, parts, errs)
	if folds != distinct || 10*distinct > occurrences {
		t.Fatalf("%d folds for %d distinct (word, job) pairs of %d occurrences", folds, distinct, occurrences)
	}
	for j, job := range jobs {
		want, err := mapreduce.MapBlockForJob(dfs.BlockID{}, data, job.Mapper, workload.SumReducer{}, 2)
		if errs[j] != nil || err != nil || !reflect.DeepEqual(parts[j], want) {
			t.Fatalf("job %d (%q): %v, %v; with the plain sum %v, %v", j, prefixes[j], parts[j], errs[j], want, err)
		}
	}
}
