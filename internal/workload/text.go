// Package workload generates the paper's two evaluation workloads and
// its job arrival patterns.
//
// The paper uses 160 GB of Project Gutenberg text for the wordcount
// experiments and a 400 GB TPC-H lineitem table for the selection
// experiments (§V-B, §V-G). Neither dataset ships with this
// repository; instead the package produces deterministic synthetic
// equivalents — Zipf-distributed English-like word streams and
// lineitem rows with matching column structure — at any scale factor.
// Determinism (same seed, same bytes) is what makes the experiments
// reproducible.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"s3sched/internal/dfs"
)

// wordList is a small English vocabulary sampled with a Zipf
// distribution, approximating natural-language word frequencies in
// Gutenberg novels.
var wordList = []string{
	"the", "of", "and", "to", "a", "in", "that", "he", "was", "it",
	"his", "her", "she", "with", "as", "had", "for", "you", "not", "be",
	"is", "at", "on", "by", "him", "they", "this", "have", "from", "but",
	"which", "all", "were", "when", "we", "there", "can", "an", "your",
	"said", "one", "them", "some", "would", "other", "into", "has",
	"more", "two", "time", "like", "then", "little", "could", "out",
	"very", "upon", "about", "may", "its", "only", "now", "made", "man",
	"after", "also", "did", "many", "before", "must", "through", "years",
	"much", "where", "way", "well", "down", "should", "because", "each",
	"just", "those", "people", "how", "too", "any", "day", "most", "us",
	"water", "long", "find", "here", "thing", "great", "house", "world",
	"never", "night", "heart", "light", "father", "mother", "voice",
	"whisper", "thunder", "quarrel", "journey", "zephyr", "quixotic",
}

// TextGen deterministically generates English-like text blocks.
type TextGen struct {
	seed    int64
	vocab   []string
	packed  []uint64  // packed[i]: vocab[i]'s first eight bytes, little-endian, zero-padded
	zipf    []float64 // cumulative Zipf weights over vocab
	guide   []int32   // guide[b]: the first word whose zipf reaches b/len(guide); ^word if every draw in b ends there
	longest int       // the longest word's length
}

// maxGuide caps a guide table at 2^16 buckets, 256 KB.
const maxGuide = 1 << 16

// NewTextGen returns a generator over the built-in ~110-word
// vocabulary; the same seed always produces the same corpus.
func NewTextGen(seed int64) *TextGen {
	return newTextGen(seed, wordList)
}

// NewTextGenVocab returns a generator over a synthetic vocabulary of
// vocabSize pseudo-words. Large vocabularies reproduce natural text's
// distinct-word statistics (the paper's corpus has 60-80 thousand
// distinct words reaching the reducers); the built-in list keeps
// outputs human-readable for demos.
func NewTextGenVocab(seed int64, vocabSize int) *TextGen {
	return newTextGen(seed, SyntheticVocabulary(vocabSize))
}

func newTextGen(seed int64, vocab []string) *TextGen {
	// Zipf with exponent 1: weight_i = 1/(i+1).
	cum := make([]float64, len(vocab))
	total := 0.0
	for i := range vocab {
		total += 1.0 / float64(i+1)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	// About 64 buckets a word, a power of two so that b/k and u·k are
	// exact: most buckets hold no word's boundary, so most draws end at
	// the bucket without a walk.
	k := min(1<<bits.Len(uint(64*len(vocab)-1)), maxGuide)
	g := &TextGen{seed: seed, vocab: vocab, packed: make([]uint64, len(vocab)), zipf: cum, guide: make([]int32, k)}
	i := 0
	for b := range g.guide {
		for i < len(cum)-1 && cum[i] < float64(b)/float64(k) {
			i++
		}
		g.guide[b] = int32(i)
		if i == len(cum)-1 || cum[i] >= float64(b+1)/float64(k) {
			g.guide[b] = ^int32(i) // the bucket's every u ends at i
		}
	}
	for i, w := range vocab {
		g.longest = max(g.longest, len(w))
		g.packed[i] = binary.LittleEndian.Uint64(append([]byte(w), make([]byte, 8)...))
	}
	return g
}

// SyntheticVocabulary deterministically builds size pronounceable
// pseudo-words ("zobaru", "kelita", …), most frequent first. The
// built-in English list seeds the head so common words stay realistic.
func SyntheticVocabulary(size int) []string {
	if size <= 0 {
		panic(fmt.Sprintf("workload: vocabulary size %d must be positive", size))
	}
	out := make([]string, 0, size)
	for _, w := range wordList {
		if len(out) == size {
			return out
		}
		out = append(out, w)
	}
	consonants := []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"}
	vowels := []string{"a", "e", "i", "o", "u"}
	for i := 0; len(out) < size; i++ {
		// Enumerate CVCVCV... syllable strings in mixed radix so every
		// word is distinct.
		n := i
		var b strings.Builder
		for s := 0; s < 3 || n > 0; s++ {
			b.WriteString(consonants[n%len(consonants)])
			n /= len(consonants)
			b.WriteString(vowels[n%len(vowels)])
			n /= len(vowels)
		}
		out = append(out, b.String())
	}
	return out
}

// pick returns the first word whose cumulative weight reaches u ∈ [0, 1),
// the word a binary search over zipf finds. Its bucket floor(u·k) starts
// no later than that word, since guide[b] reaches b/k ≤ u; a flagged
// bucket is that word.
func (g *TextGen) pick(u float64) int {
	gi := g.guide[int(u*float64(len(g.guide)))]
	if gi < 0 {
		return int(^gi)
	}
	i, last := int(gi), len(g.zipf)-1
	for i < last && g.zipf[i] < u {
		i++
	}
	return i
}

// uniform draws u ∈ [0, 1) from src as rand.Rand.Float64 does, so the
// words are the ones a rand.Rand over src draws.
func uniform(src rand.Source) float64 {
	for {
		if u := float64(src.Int63()) / (1 << 63); u < 1 {
			return u
		}
	}
}

// Block produces block blockIdx of the corpus, exactly size bytes of
// space- and newline-separated words. Each block is generated from an
// independent sub-seed so blocks can be produced in any order.
// A word is one 8-byte store of its packed head (a longer word copies
// the rest); its separator and the next word overwrite the padding.
func (g *TextGen) Block(blockIdx int, size int64) []byte {
	src := rand.NewSource(g.seed*1_000_003 + int64(blockIdx))
	// Room past size for the last word's store and separator.
	buf := make([]byte, size+int64(max(g.longest, 8))+1)
	pos, col := 0, 0
	for int64(pos) < size {
		i := g.pick(uniform(src))
		binary.LittleEndian.PutUint64(buf[pos:], g.packed[i])
		n := len(g.vocab[i])
		if n > 8 {
			copy(buf[pos+8:], g.vocab[i][8:])
		}
		pos += n
		col += n + 1
		buf[pos] = ' '
		if col >= 64 {
			buf[pos], col = '\n', 0
		}
		pos++
	}
	return buf[:size]
}

// AddTextFile registers a generated text corpus with the store: name,
// numBlocks blocks of blockSize bytes each.
func AddTextFile(store *dfs.Store, name string, numBlocks int, blockSize int64, seed int64) (*dfs.File, error) {
	g := NewTextGen(seed)
	return store.AddGeneratedFile(name, numBlocks, blockSize, func(i int) ([]byte, error) {
		return g.Block(i, blockSize), nil
	})
}

// AddTextFileVocab is AddTextFile over a synthetic vocabulary of
// vocabSize words — use it when distinct-word statistics matter
// (Table I's reduce-output profile).
func AddTextFileVocab(store *dfs.Store, name string, numBlocks int, blockSize int64, seed int64, vocabSize int) (*dfs.File, error) {
	g := NewTextGenVocab(seed, vocabSize)
	return store.AddGeneratedFile(name, numBlocks, blockSize, func(i int) ([]byte, error) {
		return g.Block(i, blockSize), nil
	})
}
