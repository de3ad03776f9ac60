package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// Lineitem generation mirrors the TPC-H lineitem table the paper's
// selection workload scans (§V-G): 16 pipe-separated columns with
// realistic domains. Rows are fixed within a block given the seed.
//
// Column order follows TPC-H:
//
//	l_orderkey|l_partkey|l_suppkey|l_linenumber|l_quantity|
//	l_extendedprice|l_discount|l_tax|l_returnflag|l_linestatus|
//	l_shipdate|l_commitdate|l_receiptdate|l_shipinstruct|l_shipmode|l_comment

var (
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"O", "F"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"}
	commentWords  = []string{"carefully", "quickly", "furiously", "packages", "deposits", "accounts", "requests", "ideas", "pending", "final"}
)

// LineitemGen deterministically generates lineitem blocks.
type LineitemGen struct {
	seed int64
}

// NewLineitemGen returns a generator for the given seed.
func NewLineitemGen(seed int64) *LineitemGen { return &LineitemGen{seed: seed} }

// QuantityMax is the exclusive upper bound of l_quantity (TPC-H uses
// 1..50); selection predicates use it to target a selectivity.
const QuantityMax = 50

// maxRowLen bounds one row and its newline: a 19-digit l_orderkey and
// every other column at its widest come to 140 bytes.
const maxRowLen = 160

// appendRow appends one lineitem row and its newline to b. The quantity,
// the price and the comment's two words are drawn first, then the other
// columns left to right: the order the rows were first generated in.
func appendRow(b []byte, rng *rand.Rand, orderKey int64) []byte {
	qty := rng.Intn(QuantityMax) + 1
	price := float64(qty) * (900 + rng.Float64()*9100) / 10
	comment1, comment2 := commentWords[rng.Intn(len(commentWords))], commentWords[rng.Intn(len(commentWords))]
	b = append(strconv.AppendInt(b, orderKey, 10), '|')
	b = append(strconv.AppendInt(b, int64(rng.Intn(200000)+1), 10), '|')
	b = append(strconv.AppendInt(b, int64(rng.Intn(10000)+1), 10), '|')
	b = append(strconv.AppendInt(b, int64(rng.Intn(7)+1), 10), '|')
	b = append(strconv.AppendInt(b, int64(qty), 10), '|')
	b = append(strconv.AppendFloat(b, price, 'f', 2, 64), '|')
	b = append(strconv.AppendFloat(b, float64(rng.Intn(11))/100, 'f', 2, 64), '|')
	b = append(strconv.AppendFloat(b, float64(rng.Intn(9))/100, 'f', 2, 64), '|')
	b = append(append(b, returnFlags[rng.Intn(len(returnFlags))]...), '|')
	b = append(append(b, lineStatuses[rng.Intn(len(lineStatuses))]...), '|')
	for range 3 { // l_shipdate, l_commitdate, l_receiptdate: 199Y-MM-DD
		y, m, d := rng.Intn(8), rng.Intn(12)+1, rng.Intn(28)+1
		b = append(b, '1', '9', '9', byte('0'+y), '-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10), '|')
	}
	b = append(append(b, shipInstructs[rng.Intn(len(shipInstructs))]...), '|')
	b = append(append(b, shipModes[rng.Intn(len(shipModes))]...), '|')
	b = append(append(b, comment1...), ' ')
	return append(append(b, comment2...), '\n')
}

// Block produces block blockIdx: complete newline-terminated rows, then
// spaces up to exactly size bytes, keeping dfs block-size invariants (the
// selection mapper skips blank lines). A row that would cross size is
// drawn and dropped, and the block ends there.
func (g *LineitemGen) Block(blockIdx int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.seed*2_000_003 + int64(blockIdx)))
	buf := make([]byte, 0, size+maxRowLen)
	for orderKey := int64(blockIdx)*100000 + 1; ; orderKey++ {
		n := len(buf)
		if buf = appendRow(buf, rng, orderKey); int64(len(buf)) > size {
			buf = buf[:n]
			break
		}
	}
	for int64(len(buf)) < size {
		buf = append(buf, ' ')
	}
	return buf
}

// AddLineitemFile registers a generated lineitem table with the store.
func AddLineitemFile(store *dfs.Store, name string, numBlocks int, blockSize int64, seed int64) (*dfs.File, error) {
	g := NewLineitemGen(seed)
	return store.AddGeneratedFile(name, numBlocks, blockSize, func(i int) ([]byte, error) {
		return g.Block(i, blockSize), nil
	})
}

// SelectionMapper implements the paper's SQL-like selection task: it
// parses lineitem rows and emits those whose l_quantity is at most
// MaxQuantity. With TPC-H's uniform 1..50 quantities, MaxQuantity=5
// selects 10% of the tuples — the paper's chosen selectivity.
type SelectionMapper struct {
	MaxQuantity int
}

var _ mapreduce.SharedMapper = SelectionMapper{}
var _ mapreduce.InputRecordCounter = SelectionMapper{}

// Map implements mapreduce.Mapper: MapShared for one mapper.
func (m SelectionMapper) Map(block dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	return m.MapShared(block, data, []mapreduce.Mapper{m}, func(_ int, kv mapreduce.KV, _ int) { emit(kv) })
}

// SharesPass implements mapreduce.SharedMapper: any two selections share
// a pass, whatever their quantities.
func (SelectionMapper) SharesPass(other mapreduce.Mapper) bool {
	_, ok := other.(SelectionMapper)
	return ok
}

// MapShared implements mapreduce.SharedMapper over SelectionMappers: a
// row is cut and its l_quantity parsed once for all of them, and a row
// any of them keeps is one record, its key and row one string built
// once. A row no job keeps costs a walk over its first five columns and
// no allocation.
func (SelectionMapper) MapShared(_ dfs.BlockID, data []byte, mappers []mapreduce.Mapper, emit func(job int, kv mapreduce.KV, n int)) error {
	limits, widest := make([]int, len(mappers)), math.MinInt
	for i, m := range mappers {
		limits[i] = m.(SelectionMapper).MaxQuantity
		widest = max(widest, limits[i])
	}
	for line, rest := nextRow(data); line != nil; line, rest = nextRow(rest) {
		var sep [5]int
		if !fieldSeparators(line, sep[:]) {
			return fmt.Errorf("workload: malformed lineitem row %q", line)
		}
		// Column 0 is l_orderkey, 3 l_linenumber, 4 l_quantity.
		qty, err := strconv.Atoi(string(line[sep[3]+1 : sep[4]]))
		if err != nil {
			return fmt.Errorf("workload: bad l_quantity in row %q: %w", line, err)
		}
		if qty > widest {
			continue
		}
		s := string(line) + string(line[:sep[0]]) + "." + string(line[sep[2]+1:sep[3]])
		kv := mapreduce.KV{Key: s[len(line):], Value: s[:len(line)]}
		for j, limit := range limits {
			if qty <= limit {
				emit(j, kv, 1)
			}
		}
	}
	return nil
}

// CountInputRecords implements mapreduce.InputRecordCounter.
func (m SelectionMapper) CountInputRecords(data []byte) int64 {
	var n int64
	for line, rest := nextRow(data); line != nil; line, rest = nextRow(rest) {
		n++
	}
	return n
}

// fieldSeparators records the offsets of the row's first len(sep) '|'
// separators, so column i spans line[sep[i-1]+1 : sep[i]]. It reports
// false when the row has fewer. It reads the row eight bytes at a time:
// zeroBytes marks the '|' bytes of each word.
func fieldSeparators(line []byte, sep []int) bool {
	n := 0
	for at := 0; at < len(line); at += 8 {
		for bars := zeroBytes(load8(line, at) ^ '|'*lanes); bars != 0; bars &= bars - 1 {
			sep[n] = at + bits.TrailingZeros64(bars)>>3
			if n++; n == len(sep) {
				return true
			}
		}
	}
	return false
}

// nextRow cuts the next non-blank line off data; the row is nil once
// only blank lines (the block's padding) are left.
func nextRow(data []byte) (row, rest []byte) {
	for len(data) > 0 {
		row, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(bytes.TrimSpace(row)) > 0 {
			return row, data
		}
	}
	return nil, nil
}

// AggregationMapper implements a TPC-H Q1-style aggregation over
// lineitem: it groups rows by (l_returnflag, l_linestatus) and emits
// the quantity, so the reduce phase produces per-group quantity sums.
// Aggregation queries are exactly the workload §V-G's output-collection
// discussion targets: sub-job partial sums can be folded as rounds
// complete, so the final aggregation starts from near-finished values.
type AggregationMapper struct{}

var _ mapreduce.Mapper = AggregationMapper{}
var _ mapreduce.InputRecordCounter = AggregationMapper{}

// Map implements mapreduce.Mapper. l_returnflag and l_linestatus are
// adjacent columns, so the group key "R|O" is one slice of the row;
// interning it and the quantity leaves one string per distinct value.
func (AggregationMapper) Map(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	strs := make(interner)
	for line, rest := nextRow(data); line != nil; line, rest = nextRow(rest) {
		var sep [10]int
		if !fieldSeparators(line, sep[:]) {
			return fmt.Errorf("workload: malformed lineitem row %q", line)
		}
		// Column 4 is l_quantity, 8 l_returnflag, 9 l_linestatus.
		emit(mapreduce.KV{Key: strs.of(line[sep[7]+1 : sep[9]]), Value: strs.of(line[sep[3]+1 : sep[4]])})
	}
	return nil
}

// CountInputRecords implements mapreduce.InputRecordCounter.
func (AggregationMapper) CountInputRecords(data []byte) int64 {
	return SelectionMapper{}.CountInputRecords(data)
}

// interner hands out one string per distinct byte sequence, so a map
// task allocates per distinct key instead of per record.
type interner map[string]string

func (in interner) of(b []byte) string {
	if s, ok := in[string(b)]; ok { // the lookup does not allocate
		return s
	}
	s := string(b)
	in[s] = s
	return s
}
