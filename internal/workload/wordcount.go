package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// SharesPass implements mapreduce.SharedMapper: every word count shares a
// pass, whatever its prefix and factor, so a block is cut into words once
// for all the word counts of a merged task.
func (PatternCountMapper) SharesPass(other mapreduce.Mapper) bool {
	_, ok := other.(PatternCountMapper)
	return ok
}

// MapShared implements mapreduce.SharedMapper over PatternCountMappers.
// Only a word start whose byte begins some job's prefix is looked at, and
// a word some job matches is counted once, for all of them, in one table
// keyed by its bytes (wordSlot): one probe a match, one string a distinct word.
// At the end of the block every job gets each distinct word it matches
// once, in the order of first occurrence, with its count times the job's
// EmitFactor: what the job emits alone, at a cost that follows matches,
// not tokens.
func (PatternCountMapper) MapShared(_ dfs.BlockID, data []byte, mappers []mapreduce.Mapper, emit func(job int, kv mapreduce.KV, n int)) error {
	p := newWordPass(mappers)
	p.count(data, len(p.firsts) <= indexByteFirsts)
	p.emit(emit)
	return nil
}

// indexByteFirsts is the most distinct first bytes a pass finds word
// starts for with bytes.IndexByte. IndexByte skips a rare letter's block
// in a fraction of one walk over every word start, but it stops at each
// mid-word occurrence of its byte too: at two bytes it is still cheaper,
// at three the one walk wins most letter sets (BenchmarkMapBlockWordcountMix
// measures the cut-over).
const indexByteFirsts = 2

// wordPass is one pass of word counts over a block: what its jobs want,
// and the words they match, each counted once for all of them.
type wordPass struct {
	jobs []PatternCountMapper
	// want[c] is 0 when no job wants a word beginning with byte c, 1 when
	// a job's prefix must say so, 2 when some job matches every such word.
	want   [256]uint8
	firsts []byte // the bytes c with want[c] > 0, ascending
	words  []wordCount
	table  []wordSlot // a power of two long, at most half full
}

// wordSlot is a slot of the open-addressing word table: a word's first
// eight bytes or fewer packed little-endian, its length (0: a free slot)
// and its position in words. "a\x00" and "a" pack to the same head.
type wordSlot struct {
	head    uint64
	len, at uint32
}

type wordCount struct {
	kv    mapreduce.KV
	n     int
	first int // where in the block the word first occurs
}

func newWordPass(mappers []mapreduce.Mapper) *wordPass {
	p := &wordPass{jobs: make([]PatternCountMapper, len(mappers)), table: make([]wordSlot, 256)}
	for j, m := range mappers {
		p.jobs[j] = m.(PatternCountMapper)
		switch prefix := p.jobs[j].Prefix; {
		case strings.ContainsAny(prefix, " \n\t\r"): // a word holds no separator, so none can match
		case prefix == "":
			for c := range p.want {
				p.want[c] = 2 * (1 - separator[c])
			}
		case len(prefix) == 1:
			p.want[prefix[0]] = 2
		default:
			p.want[prefix[0]] = max(p.want[prefix[0]], 1)
		}
	}
	for c, w := range p.want {
		if w > 0 {
			p.firsts = append(p.firsts, byte(c))
		}
	}
	return p
}

// count counts the words of data some job matches, in order of first
// occurrence. byFirst finds the candidate word starts with one
// bytes.IndexByte walk per wanted first byte; otherwise one walk reads
// data eight bytes at a time and visits every word start. Both count the
// same table.
func (p *wordPass) count(data []byte, byFirst bool) {
	if byFirst {
		for _, c := range p.firsts {
			for i := 0; i < len(data); {
				j := bytes.IndexByte(data[i:], c)
				if j < 0 {
					break
				}
				if i += j; i > 0 && !isSpace(data[i-1]) { // mid-word
					i++
					continue
				}
				end := wordEnd(data, i+1)
				p.add(data, i, end)
				i = end
			}
		}
		slices.SortFunc(p.words, func(a, b wordCount) int { return a.first - b.first }) // the walks met the words byte by byte
		return
	}
	// 0x80 marks each separator byte of x; a word starts at each other
	// byte whose predecessor is one. The block's start counts as a
	// separator.
	carry := uint64(0x80)
	for at := 0; at < len(data); at += 8 {
		x := load8(data, at)
		sep := zeroBytes(x^' '*lanes) | zeroBytes(x^'\n'*lanes) | zeroBytes(x^'\t'*lanes) | zeroBytes(x^'\r'*lanes)
		starts := (sep<<8 | carry) &^ sep
		carry = sep >> 56
		for ; starts != 0; starts &= starts - 1 {
			k := bits.TrailingZeros64(starts) >> 3
			if p.want[data[at+k]] == 0 {
				continue
			}
			end := at + k + 1 + bits.TrailingZeros64(sep>>(8*k+8))>>3 // the next separator of x, or past x
			if end > at+8 {
				end = wordEnd(data, at+8)
			}
			p.add(data, at+k, end)
		}
	}
}

// load8 is the eight bytes of data from at, little-endian, padded with
// spaces past its end.
func load8(data []byte, at int) uint64 {
	if at+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[at:])
	}
	tail := [8]byte{' ', ' ', ' ', ' ', ' ', ' ', ' ', ' '}
	copy(tail[:], data[at:])
	return binary.LittleEndian.Uint64(tail[:])
}

// lanes has a one in each byte of a word.
const lanes = 0x0101010101010101

// zeroBytes marks with 0x80 each zero byte of x and nothing else: no carry
// crosses from one byte into the next.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f * lanes
	return ^((x&low7 + low7) | x | low7)
}

// wordEnd is the position of the first separator in data at or after
// from, or len(data).
func wordEnd(data []byte, from int) int {
	for from < len(data) && !isSpace(data[from]) {
		from++
	}
	return from
}

// add counts the word data[i:end] if some job matches it. The table
// doubles when a new word makes it more than half full.
func (p *wordPass) add(data []byte, i, end int) {
	if p.want[data[i]] == 1 && !p.matched(data[i:end]) {
		return
	}
	if slot, head := p.find(data, i, end); slot.len != 0 {
		p.words[slot.at].n++
	} else {
		*slot = wordSlot{head, uint32(end - i), uint32(len(p.words))}
		p.words = append(p.words, wordCount{mapreduce.KV{Key: string(data[i:end]), Value: "1"}, 1, i})
		if 2*len(p.words) > len(p.table) {
			p.table = make([]wordSlot, 2*len(p.table))
			for k, w := range p.words {
				slot, head := p.find(data, w.first, w.first+len(w.kv.Key))
				*slot = wordSlot{head, uint32(len(w.kv.Key)), uint32(k)}
			}
		}
	}
}

// find returns the slot for the word data[i:end], holding it or free for
// it, and the word's head. Up to eight bytes a word hashes by its head
// alone ("a" and "a\x00" share a start slot); a longer one mixes in its
// length and last eight bytes, and compares the bytes past its head too.
func (p *wordPass) find(data []byte, i, end int) (*wordSlot, uint64) {
	head, n, tail := load8(data, i), end-i, uint64(0)
	if n < 8 {
		head &= 1<<(8*n) - 1
	} else if n > 8 {
		tail = binary.LittleEndian.Uint64(data[end-8:]) ^ uint64(n)
	}
	hi, lo := bits.Mul64(head^0x9e3779b97f4a7c15, tail^0xbf58476d1ce4e5b9)
	mask := uint64(len(p.table) - 1)
	for s := (hi ^ lo) & mask; ; s = (s + 1) & mask {
		slot := &p.table[s]
		if slot.len == 0 || slot.head == head && int(slot.len) == n && (n <= 8 || p.words[slot.at].kv.Key[8:] == string(data[i+8:end])) {
			return slot, head
		}
	}
}

// matched reports whether some job's prefix begins w.
func (p *wordPass) matched(w []byte) bool {
	for _, m := range p.jobs {
		if len(w) >= len(m.Prefix) && string(w[:len(m.Prefix)]) == m.Prefix {
			return true
		}
	}
	return false
}

// emit hands every job each counted word its prefix begins, with the
// word's count times the job's EmitFactor.
func (p *wordPass) emit(emit func(job int, kv mapreduce.KV, n int)) {
	for _, w := range p.words {
		for j, m := range p.jobs {
			if strings.HasPrefix(w.kv.Key, m.Prefix) { // never, for a prefix holding a separator
				emit(j, w.kv, w.n*max(m.EmitFactor, 1))
			}
		}
	}
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
		if total, err = s.Fold(key, total, v, 1); err != nil {
			return err
		}
	}
	s.Unfold(key, total, emit)
	return nil
}

// Fold implements mapreduce.Folder: acc + n × value, value parsed once.
func (SumReducer) Fold(key string, acc int64, value string, n int) (int64, error) {
	if value == "1" { // every word occurrence
		return acc + int64(n), nil
	}
	v, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: non-numeric count %q for word %q: %w", value, key, err)
	}
	return acc + int64(n)*v, nil
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
