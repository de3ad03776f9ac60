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

// sortKVs orders records for deterministic reduce input and
// deterministic job output.
func sortKVs(kvs []KV) { slices.SortFunc(kvs, compareKV) }

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
