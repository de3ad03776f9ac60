package mapreduce

import (
	"slices"
	"strings"
)

// partitionOf returns the reduce partition for a key, matching
// Hadoop's default hash partitioner. The hash is 32-bit FNV-1a, fixed
// for good: journalled shuffle records depend on where a key lands.
func partitionOf(key string, width int) int {
	if width == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(width))
}

// combineTable combines records by key as they are emitted, so a
// combiner runs without the raw output ever being materialised or
// sorted. What a key's group holds depends on the combiner's type: a
// Folder's running state, or any other combiner's buffered values.
type combineTable struct {
	combiner Reducer
	folder   Folder         // combiner's second contract; nil when it has none
	index    map[string]int // key → position in groups, until fold sorts them
	held     int            // the most groups index has held: clear's cost follows it
	groups   []group
	err      error // the first value the Folder rejected; nothing is absorbed after it
	starts   []int // fold's scratch: where each partition's run starts
}

type group struct {
	key    string
	acc    int64    // the Folder's state
	values []string // without a Folder
}

// maxKeptGroups is the most groups a table keeps its index and groups
// array for between passes: about a 256 KB corpus block's distinct
// words under one frequent prefix. An index that has held more than
// smallIndex groups is kept only while a pass fills a quarter of that,
// so no pass clears a map much larger than its own.
const (
	maxKeptGroups = 1 << 14
	smallIndex    = 1 << 10
)

func newCombineTable(combiner Reducer) combineTable {
	var t combineTable
	t.reset(combiner)
	return t
}

// reset readies the table to combine with combiner, keeping the index
// and groups array an earlier pass emptied.
func (t *combineTable) reset(combiner Reducer) {
	t.combiner, t.err = combiner, nil
	t.folder, _ = combiner.(Folder)
}

// empty ends a pass's use of the table. It keeps the index and groups
// array, emptied, for the next pass unless the pass failed — a table a
// combiner or Folder gave up on mid-way is not worth trusting — or
// filled more than maxKeptGroups. A group's values are never kept: a
// combiner that is no Folder may hold on to them.
func (t *combineTable) empty(failed bool) {
	t.held = max(t.held, len(t.groups))
	if failed || len(t.groups) > maxKeptGroups {
		t.groups = nil
	}
	if t.groups == nil || t.held > smallIndex && 4*len(t.groups) < t.held {
		t.index, t.held = nil, 0
	}
	clear(t.index)
	clear(t.groups)
	t.groups, t.combiner, t.folder, t.err = t.groups[:0], nil, nil, nil
}

// add takes n values of kv's key, each kv.Value: one probe, then one
// fold of all n or n buffered values.
func (t *combineTable) add(kv KV, n int) {
	if t.err != nil {
		return
	}
	i, ok := t.index[kv.Key]
	if !ok {
		if t.index == nil { // on first use: a task without a combiner makes a table and never adds to it
			t.index = make(map[string]int)
		}
		i = len(t.groups)
		t.index[kv.Key] = i
		t.groups = append(t.groups, group{key: kv.Key})
	}
	g := &t.groups[i]
	if t.folder != nil {
		g.acc, t.err = t.folder.Fold(kv.Key, g.acc, kv.Value, n)
		return
	}
	for ; n > 0; n-- {
		g.values = append(g.values, kv.Value)
	}
}

// fold appends the combined records to parts, each to its key's
// partition, and ends the table's use: distinct keys in sorted order,
// and for a combiner that is no Folder each group's values sorted — call
// for call what sorting all the records by (key, value) and grouping
// them yields, so even an order-sensitive combiner emits the same records
// as it did then. The partitions start empty, each with room for a
// record per group of its keys, cut from one array; a combiner that
// emits more there grows its run alone, the next one's room being past
// its capacity.
func (t *combineTable) fold(parts [][]KV) error {
	if t.err != nil {
		return t.err
	}
	slices.SortFunc(t.groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	t.starts = append(t.starts[:0], make([]int, len(parts)+1)...)
	for _, g := range t.groups {
		t.starts[partitionOf(g.key, len(parts))+1]++
	}
	runs := make([]KV, len(t.groups))
	for p := range parts {
		t.starts[p+1] += t.starts[p]
		parts[p] = runs[t.starts[p]:t.starts[p]:t.starts[p+1]]
	}
	emit := func(kv KV) {
		p := partitionOf(kv.Key, len(parts))
		parts[p] = append(parts[p], kv)
	}
	for _, g := range t.groups {
		if t.folder != nil {
			t.folder.Unfold(g.key, g.acc, emit)
			continue
		}
		slices.Sort(g.values)
		if err := t.combiner.Reduce(g.key, g.values, emit); err != nil {
			return err
		}
	}
	for p, run := range parts {
		if len(run) == 0 {
			parts[p] = nil // as a partition nothing was appended to is
		}
	}
	return nil
}
