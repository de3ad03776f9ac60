package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refPick is the first word whose cumulative Zipf weight reaches u, by
// binary search.
func refPick(g *TextGen, u float64) int {
	lo, hi := 0, len(g.zipf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.zipf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refTextBlock is TextGen.Block as it was first written: a binary search
// over the cumulative Zipf weights per word, drawn through rand.Rand,
// into a bytes.Buffer. The generator must produce its bytes exactly.
func refTextBlock(g *TextGen, blockIdx int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(blockIdx)))
	var buf bytes.Buffer
	buf.Grow(int(size) + 16)
	col := 0
	for int64(buf.Len()) < size {
		w := g.vocab[refPick(g, rng.Float64())]
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

// refLineitemBlock is LineitemGen.Block as it was first written: each row
// built with fmt and strings.Join, the rows into a bytes.Buffer.
func refLineitemBlock(g *LineitemGen, blockIdx int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.seed*2_000_003 + int64(blockIdx)))
	row := func(orderKey int64) string {
		qty := rng.Intn(QuantityMax) + 1
		price := float64(qty) * (900 + rng.Float64()*9100) / 10
		date := func() string {
			return fmt.Sprintf("199%d-%02d-%02d", rng.Intn(8), rng.Intn(12)+1, rng.Intn(28)+1)
		}
		comment := commentWords[rng.Intn(len(commentWords))] + " " + commentWords[rng.Intn(len(commentWords))]
		cols := []string{
			strconv.FormatInt(orderKey, 10),
			strconv.Itoa(rng.Intn(200000) + 1),
			strconv.Itoa(rng.Intn(10000) + 1),
			strconv.Itoa(rng.Intn(7) + 1),
			strconv.Itoa(qty),
			fmt.Sprintf("%.2f", price),
			fmt.Sprintf("%.2f", float64(rng.Intn(11))/100),
			fmt.Sprintf("%.2f", float64(rng.Intn(9))/100),
			returnFlags[rng.Intn(len(returnFlags))],
			lineStatuses[rng.Intn(len(lineStatuses))],
			date(), date(), date(),
			shipInstructs[rng.Intn(len(shipInstructs))],
			shipModes[rng.Intn(len(shipModes))],
			comment,
		}
		return strings.Join(cols, "|")
	}
	var buf bytes.Buffer
	buf.Grow(int(size))
	orderKey := int64(blockIdx)*100000 + 1
	for {
		r := row(orderKey)
		if int64(buf.Len()+len(r)+1) > size {
			break
		}
		buf.WriteString(r)
		buf.WriteByte('\n')
		orderKey++
	}
	for int64(buf.Len()) < size {
		buf.WriteByte(' ')
	}
	return buf.Bytes()
}

// firstDiff describes where got and want part, for a failure message.
func firstDiff(got, want []byte) string {
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Sprintf("%d and %d bytes, first difference at byte %d", len(got), len(want), n)
}

func TestTextGenMatchesReference(t *testing.T) {
	sizes := []int64{0, 1, 63, 64, 4 << 10, 256 << 10}
	// 0: the built-in list; -1: words past eight bytes, which synthetic
	// vocabularies of fewer than 24 million words do not have.
	long := []string{"of", "the", "eightchr", "ninechars", "incomprehensibly", "counterrevolutionaries"}
	for _, vocab := range []int{-1, 0, 1, 5_000, 70_000} {
		for _, seed := range []int64{1, 2, -7, 1 << 40} {
			g := NewTextGen(seed)
			if vocab > 0 {
				g = NewTextGenVocab(seed, vocab)
			} else if vocab < 0 {
				g = newTextGen(seed, long)
			}
			for _, idx := range []int{0, 3, 1000} {
				for _, size := range sizes {
					if size == 256<<10 && (seed != 1 || idx != 0) {
						continue // one full-size block per vocabulary keeps the test short
					}
					got, want := g.Block(idx, size), refTextBlock(g, idx, size)
					if !bytes.Equal(got, want) {
						t.Fatalf("vocab %d seed %d block %d size %d: %s", vocab, seed, idx, size, firstDiff(got, want))
					}
				}
			}
		}
	}
}

// A guide table off by one bucket picks a word one rank late for a u
// just under a bucket's bound, so the draw must walk from the guide.
func TestTextGenWordMatchesBinarySearch(t *testing.T) {
	for _, vocab := range []int{1, 2, 110, 5_000, 70_000} {
		g := NewTextGenVocab(1, vocab)
		us := []float64{0, 1 - 1.0/(1<<53)}
		for _, c := range g.zipf { // each word's bound and its neighbours
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
		}
		for b := range len(g.guide) { // each bucket's bound and its neighbours
			c := float64(b) / float64(len(g.guide))
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := g.pick(u), refPick(g, u); got != want {
				t.Fatalf("vocab %d: u=%v picks word %d, binary search %d", vocab, u, got, want)
			}
		}
	}
}

func TestLineitemMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, -3} {
		g := NewLineitemGen(seed)
		for _, idx := range []int{0, 5, 1 << 20} {
			for _, size := range []int64{0, 100, 4 << 10, 512 << 10} {
				got, want := g.Block(idx, size), refLineitemBlock(g, idx, size)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d block %d size %d: %s", seed, idx, size, firstDiff(got, want))
				}
			}
		}
	}
}

// TestGeneratedBlocksPinned holds a few blocks of each generator to the
// sha256 of the bytes they have always had: every workload file, golden
// and baseline scans these blocks.
func TestGeneratedBlocksPinned(t *testing.T) {
	text, vocab, lineitem := NewTextGen(1), NewTextGenVocab(3, 70_000), NewLineitemGen(1)
	for _, c := range []struct {
		name  string
		block func() []byte
		sum   string
	}{
		{"text 1/0/256K", func() []byte { return text.Block(0, 256<<10) }, "6d0fc9b30808a8c21b1b09c0211dc519d7cec68664d6aed7b81af1a49f65c538"},
		{"text 42/7/4K", func() []byte { return NewTextGen(42).Block(7, 4<<10) }, "9bcd5578c2e47cf73c9ce47295210f798cd1a260d311cff920f1de87dbdb2b6b"},
		{"vocab70k 3/2/64K", func() []byte { return vocab.Block(2, 64<<10) }, "b653ec8aa405260b524cd68de287dcf68fad20fab50fce40105fbb02ded49d79"},
		{"lineitem 1/0/512K", func() []byte { return lineitem.Block(0, 512<<10) }, "f2da33a0d5f4fea76e5c841becbca418a44ee63dfa58cc23ba1c883d1ea8bfc1"},
		{"lineitem 7/3/4K", func() []byte { return NewLineitemGen(7).Block(3, 4<<10) }, "55945f2bb00f8a30ad3bb824c86a035d8788b7297f27b44c4155a6d6bd11d1e1"},
	} {
		sum := sha256.Sum256(c.block())
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.sum)
		}
	}
}

// blockSink keeps the benchmarks' blocks live.
var blockSink []byte

func BenchmarkTextGenBlock(b *testing.B) {
	g := NewTextGen(1)
	b.SetBytes(256 << 10)
	for i := 0; i < b.N; i++ {
		blockSink = g.Block(i, 256<<10)
	}
}

func BenchmarkLineitemBlock(b *testing.B) {
	g := NewLineitemGen(1)
	b.SetBytes(512 << 10)
	for i := 0; i < b.N; i++ {
		blockSink = g.Block(i, 512<<10)
	}
}
