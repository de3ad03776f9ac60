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
	"bytes"
	"fmt"
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
	seed  int64
	vocab []string
	zipf  []float64 // cumulative Zipf weights over vocab
}

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
	return &TextGen{seed: seed, vocab: vocab, zipf: cum}
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

// word samples one word from the Zipf distribution.
func (g *TextGen) word(rng *rand.Rand) string {
	u := rng.Float64()
	lo, hi := 0, len(g.zipf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.zipf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.vocab[lo]
}

// Block produces block blockIdx of the corpus, exactly size bytes of
// space- and newline-separated words. Each block is generated from an
// independent sub-seed so blocks can be produced in any order.
func (g *TextGen) Block(blockIdx int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(blockIdx)))
	var buf bytes.Buffer
	buf.Grow(int(size) + 16)
	col := 0
	for int64(buf.Len()) < size {
		w := g.word(rng)
		buf.WriteString(w)
		col += len(w) + 1
		if col >= 64 {
			buf.WriteByte('\n')
			col = 0
		} else {
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:size]
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
