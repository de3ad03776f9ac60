package mapreduce

import "slices"

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

// grouped collects records by key as they are emitted, so a combiner
// can run without the raw output ever being materialised or sorted.
type grouped map[string]*[]string

func (g grouped) add(kv KV) {
	values := g[kv.Key]
	if values == nil {
		values = new([]string)
		g[kv.Key] = values
	}
	*values = append(*values, kv.Value)
}

// fold hands every group to the combiner: distinct keys in sorted
// order, each group's values sorted — call for call what sorting all
// the records by (key, value) and grouping them yields, so even an
// order-sensitive combiner emits the same records as it did then.
func (g grouped) fold(combiner Reducer, emit Emit) error {
	keys := make([]string, 0, len(g))
	for key := range g {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		slices.Sort(*g[key])
		if err := combiner.Reduce(key, *g[key], emit); err != nil {
			return err
		}
	}
	return nil
}
