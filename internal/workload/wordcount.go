package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	p := wordPasses.Get().(*wordPass)
	p.reset(mappers)
	p.count(data, len(p.firsts) <= indexByteFirsts)
	p.emit(emit)
	if cap(p.table) <= maxKeptSlots {
		clear(p.words) // its strings are the jobs' now: the pool holds none
		wordPasses.Put(p)
	}
	return nil
}

// wordPasses keeps word passes between blocks, so that a pass over a
// small block — where a merged task's cost is mostly its fixed part —
// makes no table, words or jobs of its own.
var wordPasses = sync.Pool{New: func() any { return newWordPass() }}

// maxKeptSlots is the longest word table a pass goes back to wordPasses
// with (24 B a slot: 768 KB), 16,384 distinct words. A longer one was
// grown by an odd block; kept, it would be held for good.
const maxKeptSlots = 1 << 15

// indexByteFirsts is the most distinct first bytes a pass finds word
// starts for with bytes.IndexByte. IndexByte skips a rare letter's block
// in a fraction of one walk over every word, but it stops at each mid-word
// occurrence of its byte too: at two bytes it is still cheaper, at three
// the word-at-a-time walk wins most letter sets
// (BenchmarkMapBlockWordcountMix measures the cut-over).
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
	shift  uint       // 64 − log2(len(table)): a head's hash keeps its top bits
}

// wordSlot is a slot of the open-addressing word table: a word's first
// eight bytes or fewer packed little-endian, its length (0: a free slot),
// its position in words and its count so far. "a\x00" and "a" pack to the
// same head.
type wordSlot struct {
	head       uint64
	len, at, n uint32
}

type wordCount struct {
	kv    mapreduce.KV
	n     int // its slot's count, once count is done
	first int // where in the block the word first occurs
}

// firstSlots is how long a pass's word table starts.
const firstSlots = 256

func newWordPass() *wordPass {
	return &wordPass{table: make([]wordSlot, firstSlots)}
}

// reset readies p, fresh or kept, for a pass of mappers. Its table starts
// firstSlots long again, emptied, whatever an earlier pass grew it to:
// a pass clears and walks only the slots its own words need, and grows
// into the capacity an earlier one left.
func (p *wordPass) reset(mappers []mapreduce.Mapper) {
	p.jobs, p.want, p.firsts, p.words = p.jobs[:0], [256]uint8{}, p.firsts[:0], p.words[:0]
	p.table, p.shift = p.table[:firstSlots], 64-8
	clear(p.table)
	for _, m := range mappers {
		p.jobs = append(p.jobs, m.(PatternCountMapper))
		switch prefix := p.jobs[len(p.jobs)-1].Prefix; {
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
}

// count counts the words of data some job matches, in order of first
// occurrence. One walk goes from word to word; byFirst makes it one
// bytes.IndexByte walk per wanted first byte instead, from each word that
// begins with it to the next. At a word's start one eight-byte load gives
// its first byte, its length up to eight and its packed head: a shorter
// word that every job with its first byte matches is looked up right
// there by its head alone (slot), the others through find.
func (p *wordPass) count(data []byte, byFirst bool) {
	walks := 1
	if byFirst {
		walks = len(p.firsts)
	}
	for w := 0; w < walks; w++ {
		for at := 0; at < len(data); {
			if byFirst {
				j := bytes.IndexByte(data[at:], p.firsts[w])
				if j < 0 {
					break
				}
				if at += j; at > 0 && !isSpace(data[at-1]) { // mid-word
					at++
					continue
				}
			}
			x := load8(data, at)
			n := firstSeparator(x)
			if n == 0 { // a separator
				at++
				continue
			}
			end := at + n // all of the word if n < 8
			if n == 8 {
				end = wordEnd(data, end)
			}
			var slot *wordSlot
			var head uint64
			switch want := p.want[byte(x)]; {
			case want == 2 && n < 8:
				head = x & (1<<(8*n) - 1)
				slot = p.slot(head, uint32(n))
			case want == 2 || want == 1 && p.matched(data[at:end]):
				slot, head = p.find(data, at, end)
			default:
				at = end + 1
				continue
			}
			if slot.len != 0 {
				slot.n++
			} else {
				p.insert(slot, data, at, end, head)
			}
			at = end + 1 // past the separator that ends the word
		}
	}
	for _, s := range p.table { // each word's count, from its slot
		if s.len != 0 {
			p.words[s.at].n = int(s.n)
		}
	}
	if byFirst {
		slices.SortFunc(p.words, func(a, b wordCount) int { return a.first - b.first }) // the walks met the words first byte by first byte
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

// firstSeparator is the position of the first separator byte in x, 8 if
// it holds none.
func firstSeparator(x uint64) int {
	// Every separator is below '!', and the first byte of x below it is
	// marked exactly; from a control byte there, look on byte by byte.
	n := bits.TrailingZeros64((x-'!'*lanes)&^x&(0x80*lanes)) >> 3
	for n < 8 && !isSpace(byte(x>>(8*n&63))) {
		n++
	}
	return n
}

// zeroBytes marks with 0x80 each zero byte of x and nothing else: no carry
// crosses from one byte into the next.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f * lanes
	return ^((x&low7 + low7) | x | low7)
}

// wordEnd is the position of the first separator in data at or after
// from, or len(data), found eight bytes at a time.
func wordEnd(data []byte, from int) int {
	for {
		if n := firstSeparator(load8(data, from)); n < 8 { // past data, load8's padding is one
			return from + n
		}
		from += 8
	}
}

// insert puts the word data[i:end], of head head, into the free slot
// find or slot returned for it, counted once. The table doubles when the
// word makes it more than half full.
func (p *wordPass) insert(slot *wordSlot, data []byte, i, end int, head uint64) {
	*slot = wordSlot{head, uint32(end - i), uint32(len(p.words)), 1}
	p.words = append(p.words, wordCount{mapreduce.KV{Key: string(data[i:end]), Value: "1"}, 0, i})
	if 2*len(p.words) > len(p.table) {
		p.grow(data)
	}
}

// grow doubles the table, in place when its capacity allows: the counts
// wait in words while every word is put back from there.
func (p *wordPass) grow(data []byte) {
	for _, s := range p.table {
		if s.len != 0 {
			p.words[s.at].n = int(s.n)
		}
	}
	if n := 2 * len(p.table); n <= cap(p.table) {
		p.table = p.table[:n]
		clear(p.table)
	} else {
		p.table = make([]wordSlot, n)
	}
	p.shift--
	for at, w := range p.words {
		slot, head := p.find(data, w.first, w.first+len(w.kv.Key))
		*slot = wordSlot{head, uint32(len(w.kv.Key)), uint32(at), uint32(w.n)}
	}
}

// find returns the slot for the word data[i:end], holding it or free for
// it, and the word's head. Up to eight bytes a word is looked up by slot;
// a longer one hashes its head, length and last eight bytes, and compares
// the bytes past its head too.
func (p *wordPass) find(data []byte, i, end int) (*wordSlot, uint64) {
	head, n := load8(data, i), end-i
	if n <= 8 {
		head &= 1<<(8*n) - 1 // all of it at eight bytes: 1<<64 is 0
		return p.slot(head, uint32(n)), head
	}
	tail := binary.LittleEndian.Uint64(data[end-8:]) ^ uint64(n)
	hi, lo := bits.Mul64(head^0x9e3779b97f4a7c15, tail^0xbf58476d1ce4e5b9)
	mask := uint64(len(p.table) - 1)
	for s := (hi ^ lo) & mask; ; s = (s + 1) & mask {
		slot := &p.table[s]
		if slot.len == 0 || slot.head == head && int(slot.len) == n && p.words[slot.at].kv.Key[8:] == string(data[i+8:end]) {
			return slot, head
		}
	}
}

// slot returns the slot of the word of eight bytes or fewer packed in
// head, n bytes long, holding it or free for it. Its hash is the head
// alone ("a" and "a\x00" share a start slot): one multiply, the top bits.
func (p *wordPass) slot(head uint64, n uint32) *wordSlot {
	mask := uint64(len(p.table) - 1)
	for s := head * 0x9e3779b97f4a7c15 >> p.shift; ; s = (s + 1) & mask {
		if slot := &p.table[s]; slot.len == 0 || slot.head == head && slot.len == n {
			return slot
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
