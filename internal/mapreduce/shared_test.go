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
// pass over a block served and how often input records were counted.
type passLog struct {
	mu      sync.Mutex
	widths  []int
	counted int
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

func (m prefixMapper) CountInputRecords(data []byte) int64 {
	m.log.mu.Lock()
	m.log.counted++
	m.log.mu.Unlock()
	return int64(len(strings.Fields(string(data))))
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
		parts, errs := MapBlockForJobs(dfs.BlockID{}, []byte(data), jobs)
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
}

// The engine maps a block once for each group of its round's jobs and
// counts the block's input records once for the group; every job's
// output and counters are what it gets running alone.
func TestEngineMapsOncePerGroup(t *testing.T) {
	blocks := textBlocks("ab b aa ba", "abc a bb", "b b a c", "ca ab")
	log := &passLog{}
	specs := []JobSpec{
		{Name: "a", File: "input", Mapper: prefixMapper{"a", log}, Reducer: sumReducer{}, NumReduce: 2},
		{Name: "wc", File: "input", Mapper: wordCountMapper{}, Reducer: sumReducer{}, NumReduce: 2},
		{Name: "b", File: "input", Mapper: prefixMapper{"b", log}, Reducer: sumReducer{}, Combiner: sumReducer{}, NumReduce: 3},
		{Name: "a2", File: "input", Mapper: prefixMapper{"a", log}, NumReduce: 1},
	}
	cluster, _ := testCluster(t, 2, blocks)
	merged, err := NewEngine(cluster).RunMerged(specs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 3, 3, 3}; !reflect.DeepEqual(log.widths, want) || log.counted != len(blocks) {
		t.Errorf("passes served %v jobs and counted records %d times, want %v and %d", log.widths, log.counted, want, len(blocks))
	}
	for i, spec := range specs {
		cluster, _ := testCluster(t, 2, blocks)
		alone, err := NewEngine(cluster).RunJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged[i].Output, alone.Output) || !reflect.DeepEqual(merged[i].Counters.Snapshot(), alone.Counters.Snapshot()) {
			t.Errorf("job %s: merged %v %v, alone %v %v", spec.Name, merged[i].Output, merged[i].Counters, alone.Output, alone.Counters)
		}
	}
}

// A job the engine isolated earlier in the round — its combiner failed —
// is in no later pass: the job it shared one with maps on alone.
func TestIsolatedJobJoinsNoPass(t *testing.T) {
	log := &passLog{}
	badFold := ReducerFunc(func(string, []string, Emit) error { return errors.New("no combine") })
	good, err := NewRunning(JobSpec{Name: "good", File: "input", Mapper: prefixMapper{"a", log}, Reducer: sumReducer{}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewRunning(JobSpec{Name: "bad", File: "input", Mapper: prefixMapper{"", log}, Combiner: badFold})
	if err != nil {
		t.Fatal(err)
	}
	cluster, store := testCluster(t, 1, textBlocks("a b", "a c", "b a", "a a")) // one slot: blocks run one by one
	_, jobErrs, roundErr := NewEngine(cluster).MapRoundCtx(t.Context(), allBlocks(t, store), []*Running{good, bad})
	if roundErr != nil || jobErrs[0] != nil || jobErrs[1] == nil {
		t.Fatalf("round %v, jobs %v: want the bad job isolated and nothing else failed", roundErr, jobErrs)
	}
	if want := []int{2, 1, 1, 1}; !reflect.DeepEqual(log.widths, want) {
		t.Errorf("passes served %v jobs, want %v: after the first block the good job maps alone", log.widths, want)
	}
	res, err := NewEngine(cluster).Finish(good)
	if err != nil || outputMap(res)["a"] != "5" {
		t.Errorf("good job: %v, %v; want a = 5", res, err)
	}
}
