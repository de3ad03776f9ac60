// Package mapreduce is a from-scratch, in-process MapReduce framework:
// jobs made of map tasks over DFS blocks and reduce tasks over hash
// partitions, executed on a simulated cluster of nodes with bounded
// map slots. It is the execution substrate the paper's schedulers
// drive.
//
// The framework supports *merged* execution — one physical scan of a
// block feeding the mappers of several jobs — which is the mechanism
// both MRShare-style batching and S^3 sub-job batching rely on
// (paper §IV-D). Scan sharing is real here: a merged round issues one
// dfs.ReadBlock per block regardless of how many jobs consume it.
package mapreduce

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
)

// KV is one key/value record.
type KV struct {
	Key   string
	Value string
}

// Emit receives records produced by mappers, combiners and reducers.
type Emit func(kv KV)

// compareKV orders records by key, then value.
func compareKV(a, b KV) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// sortKVs orders records by compareKV, for deterministic reduce input
// and deterministic job output. It radix-sorts the records' positions by
// their keys' heads, settles each run of equal heads with compareKV, and
// moves the records into that order. A partition holds fewer than 2^32
// records.
func sortKVs(kvs []KV) {
	n := len(kvs)
	if n < 2 {
		return
	}
	heads := make([]uint64, n)
	order := make([]uint32, 2*n) // the records' order, then radixSort's buffer
	for i, kv := range kvs {
		heads[i], order[i] = headOf(kv.Key), uint32(i)
	}
	radixSort(heads, order[:n], order[n:], 56)
	order = order[:n]
	for i := 0; i < n; {
		j := i + 1
		for j < n && heads[order[j]] == heads[order[i]] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], func(a, b uint32) int { return compareKV(kvs[a], kvs[b]) })
		}
		i = j
	}
	// Record order[j] belongs at j: follow each cycle of that permutation
	// once, marking each place filled.
	for i := range order {
		kv, j := kvs[i], i
		for {
			k := int(order[j])
			order[j] = uint32(j)
			if k == i {
				kvs[j] = kv
				break
			}
			kvs[j] = kvs[k]
			j = k
		}
	}
}

// headOf is the key's first eight bytes, big-endian, zero-padded: a
// smaller head is a smaller key, and equal heads leave the order to the
// bytes after them ("a" and "a\x00" share one).
func headOf(key string) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// radixMin is the fewest records radixSort splits into buckets; fewer
// are sorted by comparison, which is cheaper than a 256-bucket pass.
const radixMin = 64

// radixSort orders the positions in order by their heads, most
// significant byte first from the byte at shift, through buf (as long as
// order): one counting pass puts the positions into a bucket per byte
// value, keeping their order within it, and each bucket is sorted the
// same way on the next byte. A byte every head shares is skipped.
func radixSort(heads []uint64, order, buf []uint32, shift int) {
	if len(order) < radixMin {
		slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(heads[a], heads[b]) })
		return
	}
	var ends [256]int
	for {
		for _, at := range order {
			ends[byte(heads[at]>>shift)]++
		}
		if ends[byte(heads[order[0]]>>shift)] < len(order) {
			break
		}
		if shift == 0 {
			return
		}
		ends[byte(heads[order[0]]>>shift)] = 0
		shift -= 8
	}
	sum := 0
	for b, count := range ends {
		ends[b], sum = sum, sum+count
	}
	for _, at := range order {
		b := byte(heads[at] >> shift)
		buf[ends[b]] = at
		ends[b]++
	}
	copy(order, buf)
	if shift == 0 {
		return
	}
	start := 0
	for _, end := range ends {
		if end-start > 1 {
			radixSort(heads, order[start:end], buf[start:end], shift-8)
		}
		start = end
	}
}

// groupByKey walks sorted records and invokes fn once per distinct key
// with all its values. The values slice is reused across calls; fn must
// not retain it.
func groupByKey(sorted []KV, fn func(key string, values []string) error) error {
	var values []string
	for i := 0; i < len(sorted); {
		key := sorted[i].Key
		values = values[:0]
		for i < len(sorted) && sorted[i].Key == key {
			values = append(values, sorted[i].Value)
			i++
		}
		if err := fn(key, values); err != nil {
			return err
		}
	}
	return nil
}
