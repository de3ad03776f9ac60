package workload

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// PatternCountMapper is the paper's modified wordcount mapper (§V-B):
// it counts only the words matching a user-specified pattern, so
// different patterns make distinct jobs over the same input. The
// pattern is a prefix match, the simplest selective filter.
//
// EmitFactor models the heavy workload (§V-B item 2): each matching
// word is emitted EmitFactor times, multiplying map output volume the
// way the paper's heavy jobs produce 10x map output.
type PatternCountMapper struct {
	Prefix     string
	EmitFactor int
}

var _ mapreduce.SharedMapper = PatternCountMapper{}
var _ mapreduce.InputRecordCounter = PatternCountMapper{}

// Map implements mapreduce.Mapper: MapShared for one mapper, a word
// emitted as many times as it counts.
func (m PatternCountMapper) Map(block dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	return m.MapShared(block, data, []mapreduce.Mapper{m}, func(_ int, kv mapreduce.KV, n int) {
		for ; n > 0; n-- {
			emit(kv)
		}
	})
}

// SharesPass implements mapreduce.SharedMapper: only word counts of one
// prefix and factor share a pass. Distinct prefixes match distinct
// words, so one pass for them saves no work and leaves slots idle.
func (m PatternCountMapper) SharesPass(other mapreduce.Mapper) bool {
	return other == mapreduce.Mapper(m)
}

// MapShared implements mapreduce.SharedMapper over mappers equal to m.
// Only a word start carrying the prefix is looked at, and a matching
// word is counted in one table keyed by its bytes: one probe a match,
// and one string a distinct word. At the end of the block every job gets
// each distinct word once, in the order of first occurrence, with its
// count times EmitFactor, so the cost follows matches, not tokens.
func (m PatternCountMapper) MapShared(_ dfs.BlockID, data []byte, mappers []mapreduce.Mapper, emit func(job int, kv mapreduce.KV, n int)) error {
	if strings.ContainsAny(m.Prefix, " \n\t\r") {
		return nil // a word holds no separator, so none can match
	}
	prefix := []byte(m.Prefix)
	type count struct {
		kv mapreduce.KV
		n  int
	}
	var words []count
	index := make(map[string]int) // a word's position in words
	for i := 0; i < len(data); {
		if len(prefix) > 0 { // jump to the next byte that could start a match
			j := bytes.IndexByte(data[i:], prefix[0])
			if j < 0 {
				break
			}
			i += j
		}
		if isSpace(data[i]) || (i > 0 && !isSpace(data[i-1])) || !bytes.HasPrefix(data[i:], prefix) {
			i++
			continue
		}
		end := i
		for end < len(data) && !isSpace(data[end]) {
			end++
		}
		if k, ok := index[string(data[i:end])]; ok { // the lookup does not allocate
			words[k].n++
		} else {
			w := string(data[i:end])
			index[w] = len(words)
			words = append(words, count{mapreduce.KV{Key: w, Value: "1"}, 1})
		}
		i = end
	}
	factor := max(m.EmitFactor, 1)
	for _, w := range words {
		for j := range mappers {
			emit(j, w.kv, w.n*factor)
		}
	}
	return nil
}

// CountInputRecords implements mapreduce.InputRecordCounter: Hadoop's
// wordcount counts input words as records.
func (m PatternCountMapper) CountInputRecords(data []byte) int64 {
	var n int64
	before := uint8(1) // the block's start counts as a separator
	for _, b := range data {
		n += int64(before &^ separator[b]) // a word starts after a separator
		before = separator[b]
	}
	return n
}

// separator is 1 for the bytes that separate words in the text corpus.
var separator = [256]uint8{' ': 1, '\n': 1, '\t': 1, '\r': 1}

func isSpace(b byte) bool { return separator[b] != 0 }

// SumReducer sums integer-valued counts per key — wordcount's reducer
// and combiner. A sum does not care in what order it meets its terms,
// so as a combiner it folds (mapreduce.Folder).
type SumReducer struct{}

var _ mapreduce.Folder = SumReducer{}

// Reduce implements mapreduce.Reducer.
func (s SumReducer) Reduce(key string, values []string, emit mapreduce.Emit) error {
	total := int64(0)
	for _, v := range values {
		var err error
		if total, err = s.Fold(key, total, v); err != nil {
			return err
		}
	}
	s.Unfold(key, total, emit)
	return nil
}

// Fold implements mapreduce.Folder: acc + value.
func (SumReducer) Fold(key string, acc int64, value string) (int64, error) {
	if value == "1" { // every word occurrence
		return acc + 1, nil
	}
	n, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: non-numeric count %q for word %q: %w", value, key, err)
	}
	return acc + n, nil
}

// Unfold implements mapreduce.Folder: the sum, in decimal.
func (SumReducer) Unfold(key string, acc int64, emit mapreduce.Emit) {
	emit(mapreduce.KV{Key: key, Value: strconv.FormatInt(acc, 10)})
}

// WordCountJob builds the spec for one pattern-counting wordcount job
// over file. numReduce follows the paper's configuration (30 on the
// full cluster); pass a small value for scaled-down runs.
func WordCountJob(name, file, prefix string, numReduce int) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:      name,
		File:      file,
		Mapper:    PatternCountMapper{Prefix: prefix},
		Reducer:   SumReducer{},
		Combiner:  SumReducer{},
		NumReduce: numReduce,
	}
}

// DistinctPrefixes returns n single-letter prefixes that all occur in
// the generated corpus, cycling through the most frequent initials, so
// n wordcount jobs have similar (non-empty) outputs — the paper
// selects jobs "within the same scale of workload".
func DistinctPrefixes(n int) []string {
	letters := []string{"t", "a", "w", "h", "m", "s", "b", "o", "f", "n", "l", "d", "c", "p", "u", "y"}
	out := make([]string, n)
	for i := range out {
		out[i] = letters[i%len(letters)]
	}
	return out
}
