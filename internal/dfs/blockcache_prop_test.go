package dfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: under an arbitrary interleaving of reads, faults, node
// attributions, readahead and scheduler hints, the cache preserves its
// core invariants for every eviction policy:
//
//  1. every shard's footprint stays within the byte budget after every
//     op (and the aggregate Bytes counter matches the sum of live
//     entries, whose recorded sizes match the stored contents),
//  2. hits + misses equals the number of Read calls,
//  3. a read that faulted leaves nothing behind in the cache,
//  4. successful reads always return the block's true contents,
//  5. a successful miss goes uncached only when its shard is full,
//  6. readahead never evicts, and
//  7. no block is evicted while pinned (pinModel's rule, under cursor).
func TestBlockCacheInvariantsProperty(t *testing.T) {
	const (
		numBlocks = 12
		numNodes  = 3
		blockSize = 64
	)
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			prop := func(seed int64, budgetBlocks uint8, ops uint8, faultEvery uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				budget := (int64(budgetBlocks%6) + 1) * blockSize
				c, err := NewBlockCachePolicy(budget, policy)
				if err != nil {
					t.Log(err)
					return false
				}
				content := func(i int) []byte {
					b := make([]byte, blockSize)
					for j := range b {
						b[j] = byte(i * 7)
					}
					return b
				}
				model := newPinModel(numBlocks)
				fault := errors.New("injected")
				var reads, faulted int64
				for op := 0; op < 20+int(ops); op++ {
					before := residents(c)
					id := BlockID{File: "f", Index: rng.Intn(numBlocks)}
					node := NodeID(rng.Intn(numNodes))
					switch rng.Intn(8) {
					case 0:
						// Scheduler hint: the cursor at id, pinning it and the
						// next block. Only the cursor policy acts on it; for
						// lru it must be a harmless no-op.
						pins := []BlockID{id, {File: "f", Index: (id.Index + 1) % numBlocks}}
						c.Hint(ScanHint{File: "f", Pin: [][]BlockID{pins}, Cycle: numBlocks})
						model.hint(pins)
						continue
					case 1:
						model.shard(node)
						if c.PrefetchAsync(id, node, blockSize, func() ([]byte, error) { return content(id.Index), nil }) {
							settleCache(c)
							model.cached(node, id)
						}
						if evicted := evictedSince(c, before); len(evicted) != 0 {
							t.Logf("readahead of %v evicted %v", id, evicted)
							return false
						}
						continue
					}
					model.shard(node)
					failThis := faultEvery > 0 && rng.Intn(int(faultEvery)+1) == 0
					wasCached := cached(c, id, node)
					data, err := c.Read(id, node, func() ([]byte, error) {
						if failThis {
							return nil, fault
						}
						return content(id.Index), nil
					})
					reads++
					if wasCached {
						// Hit: load must not have run, so the injected fault
						// is irrelevant and the data must be right.
						if err != nil || !bytes.Equal(data, content(id.Index)) {
							t.Logf("hit returned err=%v", err)
							return false
						}
					} else if failThis {
						faulted++
						if !errors.Is(err, fault) {
							t.Logf("fault swallowed: err=%v", err)
							return false
						}
						if cached(c, id, node) {
							t.Log("faulted read was cached")
							return false
						}
					} else {
						if err != nil || !bytes.Equal(data, content(id.Index)) {
							t.Logf("miss returned err=%v", err)
							return false
						}
						if !cached(c, id, node) && shardBytes(c, node)+blockSize <= budget {
							t.Logf("miss of %v left uncached with room free on node %d", id, node)
							return false
						}
					}
					if err == nil {
						model.readOK(node, id)
					}
					if policy != PolicyCursor {
						model = newPinModel(numBlocks)
					}
					for _, ev := range evictedSince(c, before) {
						if model.pinned(ev.node, ev.id) {
							t.Logf("pinned block %v evicted from node %d", ev.id, ev.node)
							return false
						}
					}
					if b := shardBytes(c, node); b > budget {
						t.Logf("node %d shard holds %d bytes > budget %d", node, b, budget)
						return false
					}
				}
				st := c.Stats()
				if st.Hits+st.Misses != reads {
					t.Logf("hits(%d)+misses(%d) != reads(%d)", st.Hits, st.Misses, reads)
					return false
				}
				if st.Hits > reads-faulted {
					t.Logf("more hits (%d) than successful reads (%d)", st.Hits, reads-faulted)
					return false
				}
				// Per-shard budget and aggregate-bytes consistency.
				var sum int64
				c.mu.Lock()
				for node, nc := range c.nodes {
					if nc.shard.bytes > budget {
						t.Logf("node %d shard holds %d bytes > budget %d", node, nc.shard.bytes, budget)
						c.mu.Unlock()
						return false
					}
					var shardSum int64
					for id, el := range nc.shard.entries {
						e := el.Value.(*shardEntry)
						shardSum += e.size
						if e.id != id {
							t.Logf("node %d block %v: entry records %v", node, id, e.id)
							c.mu.Unlock()
							return false
						}
						if data, ok := nc.data[id]; !ok || int64(len(data)) != e.size {
							t.Logf("node %d block %v: recorded size %d, stored %d bytes", node, id, e.size, len(data))
							c.mu.Unlock()
							return false
						}
					}
					if len(nc.data) != len(nc.shard.entries) || nc.shard.order.Len() != len(nc.shard.entries) {
						t.Logf("node %d holds %d data entries but %d residents on a %d-long recency list", node, len(nc.data), len(nc.shard.entries), nc.shard.order.Len())
						c.mu.Unlock()
						return false
					}
					if shardSum != nc.shard.bytes {
						t.Logf("node %d shard bytes %d != live entries %d", node, nc.shard.bytes, shardSum)
						c.mu.Unlock()
						return false
					}
					sum += nc.shard.bytes
				}
				c.mu.Unlock()
				if st.Bytes != sum {
					t.Logf("aggregate Bytes %d != shard sum %d", st.Bytes, sum)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: the cache is a transparent layer over a Store regardless of
// eviction policy — for any random access sequence, every byte returned
// with the cache enabled is identical to the uncached store's answer,
// and physical source reads never exceed the uncached count.
func TestBlockCacheTransparencyProperty(t *testing.T) {
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			prop := func(seed int64, accesses uint8) bool {
				const (
					nodes     = 3
					numBlocks = 8
					blockSize = int64(128)
				)
				mk := func() *Store {
					s := MustStore(nodes, 1)
					if _, err := addPseudoText(s, seed); err != nil {
						t.Log(err)
						return nil
					}
					return s
				}
				plain, cached := mk(), mk()
				if plain == nil || cached == nil {
					return false
				}
				if _, err := cached.EnableCachePolicy(numBlocks*blockSize, policy); err != nil {
					t.Log(err)
					return false
				}
				rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
				for i := 0; i < 10+int(accesses); i++ {
					id := BlockID{File: "p", Index: rng.Intn(numBlocks)}
					node := NodeID(rng.Intn(nodes))
					a, errA := plain.ReadBlockAt(id, node)
					b, errB := cached.ReadBlockAt(id, node)
					if (errA == nil) != (errB == nil) {
						t.Logf("error divergence: %v vs %v", errA, errB)
						return false
					}
					if errA == nil && !bytes.Equal(a, b) {
						t.Logf("byte divergence at %v node %d", id, node)
						return false
					}
				}
				if cached.Stats().BlockReads > plain.Stats().BlockReads {
					t.Logf("cache increased physical reads: %d > %d",
						cached.Stats().BlockReads, plain.Stats().BlockReads)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: a bare MetaCache, its readahead landing at once, decides
// and counts as the BlockCache that wraps one — the same access
// sequence (reads, readahead and hints) through both produces identical
// hit/miss/eviction/prefetch counters and identical residency, for
// every policy. This is the structural guarantee the
// simulator's cache pricing rests on. Half the sequences are random;
// the other half are a hinted circular scan — the cursor's hint, the
// readahead of the next segment, then the cursor segment's reads on
// each block's home node — whose full shards serve misses uncached.
func TestMetaCacheTwinProperty(t *testing.T) {
	const (
		numBlocks = 12
		numNodes  = 3
		segment   = 3 // blocks a hinted round reads
		blockSize = int64(64)
	)
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			var bypassed int64 // hinted-cycle misses a full shard served uncached
			prop := func(seed int64, budgetBlocks uint8, ops uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				budget := (int64(budgetBlocks%6) + 1) * blockSize
				real, err := NewBlockCachePolicy(budget, policy)
				if err != nil {
					t.Log(err)
					return false
				}
				meta, err := NewMetaCache(budget, policy)
				if err != nil {
					t.Log(err)
					return false
				}
				content := make([]byte, blockSize)
				load := func() ([]byte, error) { return content, nil }
				blocks := func(seg int) []BlockID {
					var out []BlockID
					for i := 0; i < segment; i++ {
						out = append(out, BlockID{File: "f", Index: (seg*segment + i) % numBlocks})
					}
					return out
				}
				hint := func(h ScanHint) {
					real.Hint(h)
					meta.Hint(h)
				}
				read := func(id BlockID, node NodeID) bool {
					if _, err := real.Read(id, node, load); err != nil {
						t.Log(err)
						return false
					}
					hit := meta.Access(id, node, blockSize)
					if !hit && !meta.Contains(id, node) && seed%2 != 0 {
						bypassed++
					}
					if cached(real, id, node) != meta.Contains(id, node) {
						t.Logf("residency divergence at %v node %d", id, node)
						return false
					}
					return true
				}
				prefetch := func(id BlockID, node NodeID) bool {
					issued := real.PrefetchAsync(id, node, blockSize, load)
					settleCache(real)
					if issued != meta.Prefetch(id, node, blockSize) {
						t.Logf("prefetch of %v on node %d issued by one twin only", id, node)
						return false
					}
					return true
				}
				for op := 0; op < 20+int(ops); op++ {
					if seed%2 != 0 {
						seg := op % (numBlocks / segment)
						pins := append(blocks(seg), blocks(seg+1)...)
						hint(ScanHint{File: "f", Pin: [][]BlockID{pins}, Prefetch: blocks(seg + 1), Cycle: numBlocks})
						for _, id := range blocks(seg + 1) {
							if !prefetch(id, NodeID(id.Index%numNodes)) {
								return false
							}
						}
						for _, id := range blocks(seg) {
							if !read(id, NodeID(id.Index%numNodes)) {
								return false
							}
						}
						continue
					}
					id := BlockID{File: "f", Index: rng.Intn(numBlocks)}
					node := NodeID(rng.Intn(numNodes))
					switch rng.Intn(8) {
					case 0:
						hint(ScanHint{File: "f", Pin: [][]BlockID{{id, {File: "f", Index: (id.Index + 1) % numBlocks}}}, Cycle: numBlocks})
					case 1:
						if !prefetch(id, node) {
							return false
						}
					default:
						if !read(id, node) {
							return false
						}
					}
				}
				rs, ms := real.Stats(), meta.Stats()
				if rs != ms {
					t.Logf("stat divergence: real %+v, meta %+v", rs, ms)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
			if policy == PolicyCursor && bypassed == 0 {
				t.Error("no hinted-cycle miss was served uncached: the bypass path went untested")
			}
		})
	}
}

// addPseudoText registers a deterministic 8-block generated file used by
// the transparency property: same seed, same bytes, on any store.
func addPseudoText(s *Store, seed int64) (*File, error) {
	return s.AddGeneratedFile("p", 8, 128, func(i int) ([]byte, error) {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		b := make([]byte, 128)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		return b, nil
	})
}
