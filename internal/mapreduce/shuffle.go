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
	groups   []group
	err      error // the first value the Folder rejected; nothing is absorbed after it
}

type group struct {
	key    string
	acc    int64    // the Folder's state
	values []string // without a Folder
}

func newCombineTable(combiner Reducer) combineTable {
	folder, _ := combiner.(Folder)
	return combineTable{combiner: combiner, folder: folder}
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

// fold emits the combined records and ends the table's use: distinct
// keys in sorted order, and for a combiner that is no Folder each
// group's values sorted — call for call what sorting all the records by
// (key, value) and grouping them yields, so even an order-sensitive
// combiner emits the same records as it did then.
func (t *combineTable) fold(emit Emit) error {
	if t.err != nil {
		return t.err
	}
	slices.SortFunc(t.groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
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
	return nil
}
