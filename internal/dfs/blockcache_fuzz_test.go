package dfs

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settleCache waits until no load is in flight on any shard of c.
func settleCache(c *BlockCache) {
	for {
		c.mu.Lock()
		loading := 0
		for _, nc := range c.nodes {
			loading += len(nc.inflight)
		}
		c.mu.Unlock()
		if loading == 0 {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// shardBlock names a block on one node's shard.
type shardBlock struct {
	node NodeID
	id   BlockID
}

// pinnedBlocks is every resident block c's shards report pinned now.
func pinnedBlocks(c *BlockCache) map[shardBlock]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[shardBlock]bool)
	for node, s := range c.meta.nodes {
		for id, el := range s.entries {
			if s.pinned(el.Value.(*shardEntry)) {
				out[shardBlock{node, id}] = true
			}
		}
	}
	return out
}

// residents is every block c holds now, on every node's shard.
func residents(c *BlockCache) map[shardBlock]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[shardBlock]bool)
	for node, s := range c.meta.nodes {
		for id := range s.entries {
			out[shardBlock{node, id}] = true
		}
	}
	return out
}

// evictedSince is what c evicted since it held before: every
// (node, block) resident then and not now. Nothing else leaves a
// shard, so over one op that is exactly the op's evictions.
func evictedSince(c *BlockCache, before map[shardBlock]bool) []shardBlock {
	now := residents(c)
	var out []shardBlock
	for sb := range before {
		if !now[sb] {
			out = append(out, sb)
		}
	}
	return out
}

// pinModel is the cursor policy's pin rule for one file, written out
// per shard: a hint pins its blocks; a read unpins its block until the
// cursor moves; a block the cursor has advanced more than a cycle past
// since it was last read or cached is pinned no more. A shard created
// later starts from the newest hint.
type pinModel struct {
	cycle int
	last  []BlockID // newest hint's pins
	nodes map[NodeID]*pinState
}

type pinState struct {
	pins     []BlockID // nil: no hint yet
	progress int       // blocks the cursor advanced
	read     map[BlockID]bool
	seen     map[BlockID]int // progress when last read or cached
}

func newPinModel(cycle int) *pinModel {
	return &pinModel{cycle: cycle, nodes: map[NodeID]*pinState{}}
}

func (m *pinModel) shard(node NodeID) *pinState {
	if m.nodes[node] == nil {
		m.nodes[node] = &pinState{pins: m.last, read: map[BlockID]bool{}, seen: map[BlockID]int{}}
	}
	return m.nodes[node]
}

func (m *pinModel) hint(pins []BlockID) {
	for _, st := range m.nodes {
		if st.pins == nil || st.pins[0] != pins[0] {
			if st.pins != nil {
				st.progress += ((pins[0].Index-st.pins[0].Index)%m.cycle + m.cycle) % m.cycle
			}
			st.read = map[BlockID]bool{}
		}
		st.pins = pins
	}
	m.last = pins
}

// cached records a readahead that landed; readOK a successful read.
func (m *pinModel) cached(node NodeID, id BlockID) { m.shard(node).seen[id] = m.shard(node).progress }

func (m *pinModel) readOK(node NodeID, id BlockID) {
	m.cached(node, id)
	m.shard(node).read[id] = true
}

func (m *pinModel) pinned(node NodeID, id BlockID) bool {
	st := m.nodes[node]
	return st != nil && slices.Contains(st.pins, id) && !st.read[id] && st.progress-st.seen[id] <= m.cycle
}

// shardBytes is what node's shard of c holds.
// cached reports whether the block is resident on node's shard, without
// touching recency order.
func cached(c *BlockCache, id BlockID, node NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.Contains(id, node)
}

func shardBytes(c *BlockCache, node NodeID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.meta.nodes[node]; s != nil {
		return s.bytes
	}
	return 0
}

// FuzzBlockCache drives the cache with a byte-encoded op sequence and
// checks the contract shared by every eviction policy. The first byte
// selects the policy; each following byte is a read (block, node, fault
// bit), or — with bit 0x40 set — a scheduler hint (the cursor at a
// block, pinning it and the next) or, with 0xc0 set, a readahead of a
// block onto a node. After every op: hits+misses == reads, no shard
// over its budget, faulted reads never cached, correct bytes on every
// successful read, a demand read left uncached only by a full shard, a
// readahead that evicted nothing, no eviction of a block pinModel pins,
// and the policy pinning exactly the resident blocks pinModel pins. Then
// a single-flight check (N concurrent cold readers → one source read) on
// a fresh cache of the same policy.
func FuzzBlockCache(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x42, 0x81, 0x01, 0xff, 0x42})
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80})                   // cursor policy, repeated fault
	f.Add([]byte{0x01, 0x41, 0x01, 0x02, 0x45, 0x03, 0x04, 0x05}) // hints interleaved with reads
	f.Add([]byte{0x01, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x00})
	// A hinted circular scan on one node, reading ahead two blocks past
	// the cursor, two cycles: the full shard serves misses uncached.
	f.Add([]byte{0x01, 0x40, 0xc2, 0xc3, 0x00, 0x01, 0x42, 0xc4, 0xc5, 0x02, 0x03,
		0x44, 0xc6, 0xc7, 0x04, 0x05, 0x46, 0xc0, 0xc1, 0x06, 0x07,
		0x40, 0x00, 0x01, 0x42, 0x02, 0x03, 0x44, 0x04, 0x05, 0x46, 0x06, 0x07})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		policy := Policies()[int(ops[0])%len(Policies())]
		ops = ops[1:]
		const (
			numBlocks = 8
			blockSize = 32
			budget    = 3 * blockSize // forces eviction pressure
		)
		c, err := NewBlockCachePolicy(budget, policy)
		if err != nil {
			t.Fatal(err)
		}
		content := func(i int) []byte {
			b := make([]byte, blockSize)
			for j := range b {
				b[j] = byte(i*13 + 1)
			}
			return b
		}
		// The op stream is single-threaded and every readahead settles
		// before the next op, so the evictions an op caused are known
		// when it returns. Under cursor, pinModel says what is pinned.
		model := newPinModel(numBlocks)
		fault := errors.New("injected")
		var reads int64
		for _, op := range ops {
			before := residents(c)
			id := BlockID{File: "f", Index: int(op & 0x07)}
			node := NodeID((op >> 3) & 0x03)
			readahead := op&0xc0 == 0xc0
			switch {
			case readahead:
				model.shard(node)
				if c.PrefetchAsync(id, node, blockSize, func() ([]byte, error) { return content(id.Index), nil }) {
					settleCache(c)
					model.cached(node, id)
				}
			case op&0x40 != 0:
				pins := []BlockID{id, {File: "f", Index: (id.Index + 1) % numBlocks}}
				c.Hint(ScanHint{File: "f", Pin: [][]BlockID{pins}, Cycle: numBlocks})
				model.hint(pins)
			default:
				model.shard(node)
				failThis := op&0x80 != 0
				wasCached := cached(c, id, node)
				data, err := c.Read(id, node, func() ([]byte, error) {
					if failThis {
						return nil, fault
					}
					return content(id.Index), nil
				})
				reads++
				if err != nil {
					if !errors.Is(err, fault) {
						t.Fatalf("unexpected error: %v", err)
					}
					if cached(c, id, node) {
						t.Fatalf("faulted read of %v cached on node %d", id, node)
					}
				} else if !bytes.Equal(data, content(id.Index)) {
					t.Fatalf("wrong bytes for %v", id)
				} else {
					model.readOK(node, id)
					if !wasCached && !cached(c, id, node) && shardBytes(c, node)+blockSize <= budget {
						t.Fatalf("miss of %v left uncached with room free on node %d", id, node)
					}
				}
				if st := c.Stats(); st.Hits+st.Misses != reads {
					t.Fatalf("hits(%d)+misses(%d) != reads(%d)", st.Hits, st.Misses, reads)
				}
			}
			evicted := evictedSince(c, before)
			if readahead && len(evicted) != 0 {
				t.Fatalf("readahead of %v evicted %v", id, evicted)
			}
			if policy != PolicyCursor {
				model = newPinModel(numBlocks) // lru pins nothing
			}
			for _, ev := range evicted {
				if model.pinned(ev.node, ev.id) {
					t.Fatalf("pinned block %v evicted from node %d", ev.id, ev.node)
				}
			}
			got := pinnedBlocks(c)
			for sb := range got {
				if !model.pinned(sb.node, sb.id) {
					t.Fatalf("%s pins %v on node %d, the pin rule does not", policy, sb.id, sb.node)
				}
			}
			for node, st := range model.nodes {
				for _, id := range st.pins {
					if model.pinned(node, id) && cached(c, id, node) && !got[shardBlock{node, id}] {
						t.Fatalf("%v on node %d is not pinned, the pin rule pins it", id, node)
					}
				}
			}
			for node := NodeID(0); node < 4; node++ {
				if b := shardBytes(c, node); b > budget {
					t.Fatalf("node %d shard holds %d bytes > budget %d", node, b, budget)
				}
			}
		}

		// Single-flight invariant on a fresh cache of the same policy:
		// concurrent cold readers of one block coalesce into one source
		// read, and each still counts as exactly one hit or miss.
		sf, err := NewBlockCachePolicy(budget, policy)
		if err != nil {
			t.Fatal(err)
		}
		const readers = 4
		var loads atomic.Int64
		var wg sync.WaitGroup
		id := BlockID{File: "f", Index: 0}
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				data, err := sf.Read(id, 0, func() ([]byte, error) {
					loads.Add(1)
					return content(0), nil
				})
				if err != nil || !bytes.Equal(data, content(0)) {
					t.Errorf("concurrent read: err=%v", err)
				}
			}()
		}
		wg.Wait()
		if got := loads.Load(); got != 1 {
			t.Fatalf("%d source loads for %d concurrent readers, want 1 (single-flight)", got, readers)
		}
		if st := sf.Stats(); st.Hits+st.Misses != readers {
			t.Fatalf("hits(%d)+misses(%d) != %d concurrent reads", st.Hits, st.Misses, readers)
		}
	})
}
