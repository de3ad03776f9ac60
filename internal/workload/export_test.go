package workload

import "s3sched/internal/mapreduce"

// SharedWordCount is one shared word-count pass of mappers (all
// PatternCountMappers) over data — on the IndexByte walks when byFirst,
// else on the word-at-a-time walk — for the tests of package workload_test. It
// returns the length its word table ended at.
func SharedWordCount(data []byte, mappers []mapreduce.Mapper, byFirst bool, emit func(job int, kv mapreduce.KV, n int)) (slots int) {
	p := newWordPass()
	p.reset(mappers)
	p.count(data, byFirst)
	p.emit(emit)
	return len(p.table)
}
