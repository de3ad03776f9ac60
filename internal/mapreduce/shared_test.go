package mapreduce

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"s3sched/internal/dfs"
)

// passLog records, for the prefixMappers sharing it, how many jobs every
// pass over a block served.
type passLog struct {
	mu     sync.Mutex
	widths []int
}

// prefixMapper emits (word, "1") for every word starting with its prefix;
// one pass serves any number of them. A "!" word fails the pass.
type prefixMapper struct {
	prefix string
	log    *passLog
}

func (m prefixMapper) Map(b dfs.BlockID, data []byte, emit Emit) error {
	return m.MapShared(b, data, []Mapper{m}, func(_ int, kv KV, _ int) { emit(kv) })
}

func (prefixMapper) SharesPass(other Mapper) bool {
	_, ok := other.(prefixMapper)
	return ok
}

func (m prefixMapper) MapShared(_ dfs.BlockID, data []byte, mappers []Mapper, emit func(int, KV, int)) error {
	if m.log != nil {
		m.log.mu.Lock()
		m.log.widths = append(m.log.widths, len(mappers))
		m.log.mu.Unlock()
	}
	for _, w := range strings.Fields(string(data)) {
		if w == "!" {
			return errors.New("a bang")
		}
		kv := KV{Key: w, Value: "1"}
		for j, other := range mappers {
			if strings.HasPrefix(w, other.(prefixMapper).prefix) {
				emit(j, kv, 1)
			}
		}
	}
	return nil
}

// otherShared is a second SharedMapper type: it never shares a pass with
// a prefixMapper.
type otherShared struct{ prefixMapper }

func (otherShared) SharesPass(other Mapper) bool {
	_, ok := other.(otherShared)
	return ok
}

// Jobs share a pass when the group head's SharesPass admits them; a job
// that cannot run (no partitions) shares none.
func TestMapGroups(t *testing.T) {
	p, o, plain := MapJob{prefixMapper{prefix: "a"}, nil, 1}, MapJob{otherShared{prefixMapper{prefix: "b"}}, nil, 2}, MapJob{wordCountMapper{}, nil, 1}
	broken := MapJob{prefixMapper{prefix: "a"}, nil, 0}
	for _, c := range []struct {
		jobs []MapJob
		want [][]int
	}{
		{nil, [][]int{}},
		{[]MapJob{plain, plain}, [][]int{{0}, {1}}},
		{[]MapJob{p, plain, p, o, p, o}, [][]int{{0, 2, 4}, {1}, {3, 5}}},
		{[]MapJob{o, p}, [][]int{{0}, {1}}},
		{[]MapJob{broken, p, broken, p}, [][]int{{0}, {1, 3}, {2}}},
	} {
		if got := MapGroups(c.jobs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("MapGroups(%v) = %v, want %v", c.jobs, got, c.want)
		}
	}
}

// mergedTask maps a merged task over one block as a worker does: one
// MapBlockForJobs pass for each group of MapGroups.
func mergedTask(block dfs.BlockID, data []byte, jobs []MapJob) ([][][]KV, []error) {
	parts, errs := make([][][]KV, len(jobs)), make([]error, len(jobs))
	for _, group := range MapGroups(jobs) {
		pass, got, failed := make([]MapJob, len(group)), make([][][]KV, len(group)), make([]error, len(group))
		for i, j := range group {
			pass[i] = jobs[j]
		}
		MapBlockForJobs(block, data, pass, got, failed)
		for i, j := range group {
			parts[j], errs[j] = got[i], failed[i]
		}
	}
	return parts, errs
}

// A merged task answers per job what one-job tasks do: a shared pass's
// mapper error fails every job of the pass with the same error, a
// combiner's only its job, and a job that cannot run fails alone.
func TestMapBlockForJobsMatchesOneJobTasks(t *testing.T) {
	badFold := ReducerFunc(func(string, []string, Emit) error { return errors.New("no combine") })
	log := &passLog{}
	for _, data := range []string{"ab b aa ba abc a", "a ! b", ""} {
		jobs := []MapJob{
			{prefixMapper{"a", log}, nil, 2},
			{wordCountMapper{}, sumReducer{}, 3},
			{prefixMapper{"b", log}, sumReducer{}, 1},
			{prefixMapper{"a", log}, badFold, 2},
			{nil, nil, 1},
			{prefixMapper{"", log}, nil, 0},
		}
		log.widths = nil
		parts, errs := mergedTask(dfs.BlockID{}, []byte(data), jobs)
		if want := []int{3}; !reflect.DeepEqual(log.widths, want) {
			t.Errorf("%q: passes served %v jobs, want %v", data, log.widths, want)
		}
		for j, job := range jobs {
			want, wantErr := MapBlockForJob(dfs.BlockID{}, []byte(data), job.Mapper, job.Combiner, job.Width)
			if !reflect.DeepEqual(parts[j], want) || (errs[j] == nil) != (wantErr == nil) || (wantErr != nil && errs[j].Error() != wantErr.Error()) {
				t.Errorf("%q job %d: %v, %v; one-job task %v, %v", data, j, parts[j], errs[j], want, wantErr)
			}
		}
	}
	// Jobs that are no one group of MapGroups all fail, and none of them
	// is mapped.
	log.widths = nil
	jobs := []MapJob{{prefixMapper{"a", log}, nil, 2}, {otherShared{prefixMapper{"b", log}}, nil, 2}}
	parts, errs := make([][][]KV, len(jobs)), make([]error, len(jobs))
	MapBlockForJobs(dfs.BlockID{}, []byte("ab b aa"), jobs, parts, errs)
	if log.widths != nil {
		t.Errorf("two groups: passes served %v jobs, want none", log.widths)
	}
	for j := range jobs {
		if parts[j] != nil || errs[j] == nil || !strings.Contains(errs[j].Error(), "cannot share the pass of job 0") {
			t.Errorf("two groups, job %d: %v, %v; want no partitions and the sharing error", j, parts[j], errs[j])
		}
	}
}

// A combiner that folds meets a value it cannot absorb in the middle of a
// merged task, not after it: its job fails, and the job sharing the
// block's read gets what its one-job task gives.
func TestRejectedFoldKillsOnlyItsJob(t *testing.T) {
	good := MapJob{emitAll([]KV{{"a", "1"}, {"b", "2"}, {"a", "3"}}), foldingSum{}, 2}
	bad := MapJob{emitAll([]KV{{"w", "1"}, {"w", "many"}}), foldingSum{}, 2}
	parts, errs := mergedTask(dfs.BlockID{}, nil, []MapJob{good, bad})
	if errs[1] == nil || parts[1] != nil {
		t.Errorf("the failed job: %v, %v; want no partitions and its combiner's error", parts[1], errs[1])
	}
	want, wantErr := MapBlockForJob(dfs.BlockID{}, nil, good.Mapper, good.Combiner, good.Width)
	if errs[0] != nil || wantErr != nil || !reflect.DeepEqual(parts[0], want) {
		t.Errorf("the job sharing the read: %v, %v; alone %v, %v", parts[0], errs[0], want, wantErr)
	}
}
