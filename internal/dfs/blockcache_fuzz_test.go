package dfs

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzBlockCache drives the cache with a byte-encoded op sequence and
// checks the invariants shared by every eviction policy. The first
// byte selects the policy; each following byte is either a read op
// (block, node, fault bit) or — with bit 0x40 set — a scheduler hint
// (pin a two-block window, demote the block behind it). After the
// sequence: accounting identity hits+misses == reads, per-shard budgets
// respected, faulted reads never cached, pinned blocks never evicted
// (cursor policy), correct bytes on every successful read, and a
// single-flight check (N concurrent cold readers → one source read)
// on a fresh cache of the same policy.
func FuzzBlockCache(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x42, 0x81, 0x01, 0xff, 0x42})
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80})                   // cursor policy, repeated fault
	f.Add([]byte{0x01, 0x41, 0x01, 0x02, 0x45, 0x03, 0x04, 0x05}) // hints interleaved with reads
	f.Add([]byte{0x01, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x00})

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
		// Mirror the pin set the cursor policy should honor; the op
		// stream is single-threaded, so observer callbacks interleave
		// deterministically with pin updates.
		pinned := make(map[BlockID]bool)
		var pinMu sync.Mutex
		c.SetObserver(func(ev CacheEvent) {
			if ev.Kind != CacheEvict || policy != PolicyCursor {
				return
			}
			pinMu.Lock()
			bad := pinned[ev.Block]
			pinMu.Unlock()
			if bad {
				t.Errorf("pinned block %v evicted", ev.Block)
			}
		})
		fault := errors.New("injected")
		var reads int64
		for _, op := range ops {
			if op&0x40 != 0 {
				at := int(op & 0x07)
				pin := []BlockID{
					{File: "f", Index: at},
					{File: "f", Index: (at + 1) % numBlocks},
				}
				demote := BlockID{File: "f", Index: (at + numBlocks - 1) % numBlocks}
				pinMu.Lock()
				pinned = map[BlockID]bool{pin[0]: true, pin[1]: true}
				pinMu.Unlock()
				c.Hint(ScanHint{File: "f", Pin: [][]BlockID{pin}, Demote: []BlockID{demote}})
				continue
			}
			id := BlockID{File: "f", Index: int(op & 0x07)}
			node := NodeID((op >> 3) & 0x03)
			failThis := op&0x80 != 0
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
				if c.Contains(id, node) {
					t.Fatalf("faulted read of %v cached on node %d", id, node)
				}
			} else if !bytes.Equal(data, content(id.Index)) {
				t.Fatalf("wrong bytes for %v", id)
			}
			st := c.Stats()
			if st.Hits+st.Misses != reads {
				t.Fatalf("hits(%d)+misses(%d) != reads(%d)", st.Hits, st.Misses, reads)
			}
			if st.Bytes < 0 || st.Bytes > 4*budget {
				t.Fatalf("aggregate bytes %d outside [0, 4*budget]", st.Bytes)
			}
		}
		// Per-shard budget check at the end of the sequence.
		c.mu.Lock()
		for node, nc := range c.nodes {
			if nc.meta.bytes > budget {
				t.Errorf("node %d shard holds %d bytes > budget %d", node, nc.meta.bytes, budget)
			}
		}
		c.mu.Unlock()

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
