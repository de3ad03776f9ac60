// Block cache: a per-node, byte-budgeted block-content cache with
// scan-aware eviction and scheduler-driven prefetch.
//
// The S^3 premise is that a segment scanned once serves every
// co-scheduled job, but closely spaced arrivals that just miss a batch
// — and rounds requeued after faults — still re-read the same blocks
// from disk. A node-local cache absorbs exactly those repeats: each
// node keeps the most recently served blocks up to a byte budget, and
// concurrent readers of a cold block coalesce into one disk read
// (single-flight), so a burst of mappers never stampedes the source.
//
// A BlockCache is a MetaCache (metacache.go) plus the bytes: the
// MetaCache decides what is admitted, evicted and read ahead and counts
// it, and this file keeps the contents, the lock and the in-flight
// loads. Replacement is the shard's one rule (policy.go): plain LRU
// collapses to zero hits when the circular scan's cycle exceeds the
// budget, so a cursor-policy cache takes ScanHints from the JQM and
// keeps the blocks the cursor reaches soonest; a full shard serves a
// scan's miss uncached rather than evict one of them. An lru-policy
// cache drops the hints and stays plain LRU. PrefetchAsync reads the
// segment after the cursor ahead, coalesced with demand reads through
// the same in-flight table, but only into free room: every resident
// block is one the cursor comes back to, so a readahead that evicted
// it would only move a read.
//
// Fault interaction is deliberate: the ReadFault hook fires on cache
// misses only (a cached block never touches the disk path, so it cannot
// fail), and a block whose load fails is never cached — a failed demand
// load propagates its error to every coalesced waiter and the next read
// retries cold; a failed prefetch is counted, dropped, and never seen
// by readers (a waiter coalesced onto it falls through to its own cold
// load).
package dfs

import "sync"

// inflightLoad coalesces concurrent loads of the same cold block.
// Demand loads and prefetch loads share the table, so a demand read
// arriving while the prefetcher is mid-flight waits for that one source
// read instead of issuing its own.
type inflightLoad struct {
	done     chan struct{}
	data     []byte
	err      error
	prefetch bool // speculative load: errors are swallowed, waiters re-check
}

// nodeCache is what one node's shard holds beyond its metadata: the
// cached contents and the loads of blocks currently being read from
// the source.
type nodeCache struct {
	shard    *cacheShard // this node's shard of the cache's MetaCache
	data     map[BlockID][]byte
	inflight map[BlockID]*inflightLoad
	reserved int64 // bytes of readahead in flight: room already spoken for
}

// BlockCache is a per-node, byte-budgeted block cache with
// single-flight loading and scan-aware eviction. Each node gets
// an independent shard with the same byte budget, mirroring node-local
// page caches: a block cached on node 3 does not occupy budget on node
// 5. Reads not attributed to a node (Store.ReadBlock) share one
// pseudo-node shard.
//
// A BlockCache is a MetaCache plus what only real bytes need: a lock,
// and per node the contents, the in-flight loads and the readahead
// reservation. Every admit, evict and prefetch decision, the byte
// accounting and the counters are its MetaCache's.
//
// Cached reads return the stored slice without copying — the same
// aliasing contract as BlockSource — so callers must not mutate
// returned data.
type BlockCache struct {
	mu    sync.Mutex // guards meta, nodes and every nodeCache
	meta  *MetaCache
	nodes map[NodeID]*nodeCache
}

// NewBlockCachePolicy creates a cache giving every node shard the same
// byte budget and the named eviction policy (see Policies).
func NewBlockCachePolicy(bytesPerNode int64, policy string) (*BlockCache, error) {
	meta, err := NewMetaCache(bytesPerNode, policy)
	if err != nil {
		return nil, err
	}
	return &BlockCache{meta: meta, nodes: make(map[NodeID]*nodeCache)}, nil
}

func (c *BlockCache) shard(node NodeID) *nodeCache {
	nc, ok := c.nodes[node]
	if !ok {
		nc = &nodeCache{
			shard:    c.meta.shard(node),
			data:     make(map[BlockID][]byte),
			inflight: make(map[BlockID]*inflightLoad),
		}
		c.nodes[node] = nc
	}
	return nc
}

// Read returns the block's contents from node's shard, calling load on
// a miss. Concurrent misses of the same (block, node) coalesce: one
// caller runs load, the rest wait for its result. Every call counts as
// exactly one hit or one miss (coalesced waiters on a demand load are
// misses), so hits + misses always equals the number of Read calls. A
// failed load is never cached; the error reaches every coalesced
// waiter of a demand load, while a reader that coalesced onto a failed
// prefetch retries with its own cold load. A loaded block the shard
// does not keep — larger than the whole budget, squeezed out by pins,
// or needed later than every other resident — is served but not kept.
func (c *BlockCache) Read(id BlockID, node NodeID, load func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	nc := c.shard(node)
	for {
		if c.meta.hit(nc.shard, id) {
			data := nc.data[id]
			c.mu.Unlock()
			return data, nil
		}
		fl, ok := nc.inflight[id]
		if !ok {
			break
		}
		if !fl.prefetch {
			c.meta.misses++
			c.mu.Unlock()
			<-fl.done
			return fl.data, fl.err
		}
		// Prefetch in flight: wait for that one source read, then
		// re-examine the shard. Success turns this read into a hit;
		// failure falls through to a cold demand load.
		c.mu.Unlock()
		<-fl.done
		c.mu.Lock()
	}
	c.meta.misses++
	fl := &inflightLoad{done: make(chan struct{})}
	nc.inflight[id] = fl
	c.mu.Unlock()

	fl.data, fl.err = load()

	c.mu.Lock()
	delete(nc.inflight, id)
	if fl.err == nil {
		evicted, kept := c.meta.admit(nc.shard, id, int64(len(fl.data)))
		for _, v := range evicted {
			delete(nc.data, v)
		}
		if kept {
			nc.data[id] = fl.data
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.data, fl.err
}

// PrefetchAsync starts a speculative background load of the block into
// node's shard, returning true when a load was issued. It declines —
// without side effects — when the block is already resident or in
// flight, or when the shard has no free room for it beside the
// readahead already in flight: readahead never evicts. The load is
// registered in the in-flight table before returning, so demand reads
// arriving afterwards coalesce onto it instead of reading the source
// again. It lands only if the room is still free. Errors are swallowed:
// the block simply is not cached and PrefetchFailed is incremented.
func (c *BlockCache) PrefetchAsync(id BlockID, node NodeID, size int64, load func() ([]byte, error)) bool {
	c.mu.Lock()
	nc := c.shard(node)
	_, loading := nc.inflight[id]
	if nc.shard.has(id) || loading || nc.shard.bytes+nc.reserved+size > c.meta.budget {
		c.mu.Unlock()
		return false
	}
	c.meta.prefetches++
	nc.reserved += size
	fl := &inflightLoad{done: make(chan struct{}), prefetch: true}
	nc.inflight[id] = fl
	c.mu.Unlock()

	go func() {
		fl.data, fl.err = load()
		c.mu.Lock()
		delete(nc.inflight, id)
		nc.reserved -= size
		if fl.err != nil {
			c.meta.prefetchFailed++
		} else if nc.shard.fill(id, int64(len(fl.data)), c.meta.budget) {
			nc.data[id] = fl.data
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	return true
}

// Hint applies scheduler guidance to every shard and reports whether
// the cache takes hints (see MetaCache.Hint).
func (c *BlockCache) Hint(h ScanHint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.Hint(h)
}

// Stats returns a snapshot of cumulative cache accounting.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.Stats()
}
