// Block cache: a per-node, byte-budgeted block-content cache with
// pluggable eviction policies and scheduler-driven prefetch.
//
// The S^3 premise is that a segment scanned once serves every
// co-scheduled job, but closely spaced arrivals that just miss a batch
// — and rounds requeued after faults — still re-read the same blocks
// from disk. A node-local cache absorbs exactly those repeats: each
// node keeps the most recently served blocks up to a byte budget, and
// concurrent readers of a cold block coalesce into one disk read
// (single-flight), so a burst of mappers never stampedes the source.
//
// Replacement is delegated to an EvictionPolicy (policy.go): plain LRU
// collapses to zero hits when the circular scan's cycle exceeds the
// budget, so the scan-aware cursor policy can be selected per cache. It
// takes ScanHints from the JQM and keeps the blocks the cursor reaches
// soonest; a full shard serves a scan's miss uncached rather than evict
// one of them. PrefetchAsync reads the segment after the cursor ahead,
// coalesced with demand reads through the same in-flight table, but
// only into free room: every resident block is one the cursor comes
// back to, so a readahead that evicted it would only move a read.
//
// Fault interaction is deliberate: the ReadFault hook fires on cache
// misses only (a cached block never touches the disk path, so it cannot
// fail), and a block whose load fails is never cached — a failed demand
// load propagates its error to every coalesced waiter and the next read
// retries cold; a failed prefetch is counted, dropped, and never seen
// by readers (a waiter coalesced onto it falls through to its own cold
// load).
package dfs

import (
	"fmt"
	"sync"
)

// CacheEventKind labels a cache observer callback.
type CacheEventKind int

const (
	// CacheHit fires when a read is served from the cache.
	CacheHit CacheEventKind = iota
	// CacheEvict fires when the policy discards a block to fit the budget.
	CacheEvict
	// CachePrefetch fires when a prefetched block lands in the cache.
	CachePrefetch
)

// CacheEvent describes one cache hit, eviction or prefetch completion
// for observers (trace wiring, tests).
type CacheEvent struct {
	Kind  CacheEventKind
	Block BlockID
	Node  NodeID // node whose cache shard the event occurred on
	Bytes int64  // size of the block involved
}

// CacheStats is a snapshot of cumulative cache accounting. Hits,
// Misses, Evictions, Prefetches and PrefetchFailed are monotonic
// counters (zeroed by ResetStats); Bytes and PinnedBytes are gauges of
// the current footprint.
type CacheStats struct {
	Hits           int64 // reads served from cache (incl. prefetched blocks)
	Misses         int64 // reads that went to the underlying source (incl. coalesced waiters)
	Evictions      int64 // blocks discarded to fit the byte budget
	Prefetches     int64 // prefetch loads issued
	PrefetchFailed int64 // prefetch loads that failed (block not cached)
	Bytes          int64 // bytes currently cached across all nodes
	PinnedBytes    int64 // bytes currently pin-protected across all nodes
}

// HitRatio returns hits / (hits + misses), or 0 when no reads occurred.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

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

// nodeCache is one node's shard: the policy-managed residency metadata
// (shared with MetaCache via cacheShard), the cached contents, and the
// in-flight loads for blocks currently being read from the source.
type nodeCache struct {
	meta     *cacheShard
	data     map[BlockID][]byte
	inflight map[BlockID]*inflightLoad
	reserved int64 // bytes of readahead in flight: room already spoken for
}

// BlockCache is a per-node, byte-budgeted block cache with
// single-flight loading and a pluggable eviction policy. Each node gets
// an independent shard with the same byte budget, mirroring node-local
// page caches: a block cached on node 3 does not occupy budget on node
// 5. Reads not attributed to a node (Store.ReadBlock) share one
// pseudo-node shard.
//
// Cached reads return the stored slice without copying — the same
// aliasing contract as BlockSource — so callers must not mutate
// returned data.
type BlockCache struct {
	budget int64  // per-node byte budget
	policy string // eviction policy name (validated at construction)

	mu             sync.Mutex
	nodes          map[NodeID]*nodeCache
	lastHints      map[string]ScanHint // per file; replayed onto fresh shards
	bytes          int64               // total cached bytes across shards
	hits           int64
	misses         int64
	evictions      int64
	prefetches     int64
	prefetchFailed int64
	obs            func(CacheEvent) // fired outside mu; set before use
}

// NewBlockCachePolicy creates a cache giving every node shard the same
// byte budget and the named eviction policy (see Policies).
func NewBlockCachePolicy(bytesPerNode int64, policy string) (*BlockCache, error) {
	if bytesPerNode <= 0 {
		return nil, fmt.Errorf("dfs: cache budget must be positive, got %d bytes", bytesPerNode)
	}
	if _, err := NewPolicy(policy); err != nil {
		return nil, err
	}
	return &BlockCache{
		budget:    bytesPerNode,
		policy:    policy,
		nodes:     make(map[NodeID]*nodeCache),
		lastHints: make(map[string]ScanHint),
	}, nil
}

// Budget returns the per-node byte budget.
func (c *BlockCache) Budget() int64 { return c.budget }

// Policy returns the eviction policy name the cache was built with.
func (c *BlockCache) Policy() string { return c.policy }

// SetObserver installs a callback fired on every hit, eviction and
// prefetch completion. Install before the cache is in use; the callback
// runs outside the cache lock and must be safe for concurrent use.
func (c *BlockCache) SetObserver(obs func(CacheEvent)) {
	c.mu.Lock()
	c.obs = obs
	c.mu.Unlock()
}

func (c *BlockCache) shard(node NodeID) *nodeCache {
	nc, ok := c.nodes[node]
	if !ok {
		pol, err := NewPolicy(c.policy)
		if err != nil {
			panic(err) // unreachable: name validated at construction
		}
		// Replay the newest hint per file so a shard created mid-pass
		// starts with the current cursors. A fresh policy has no clock
		// to advance, so replay order across files is irrelevant.
		for _, h := range c.lastHints {
			pol.Hint(h)
		}
		nc = &nodeCache{
			meta:     newCacheShard(pol),
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
// prefetch retries with its own cold load.
func (c *BlockCache) Read(id BlockID, node NodeID, load func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	nc := c.shard(node)
	for {
		if data, ok := nc.data[id]; ok {
			nc.meta.access(id)
			c.hits++
			obs := c.obs
			c.mu.Unlock()
			if obs != nil {
				obs(CacheEvent{Kind: CacheHit, Block: id, Node: node, Bytes: int64(len(data))})
			}
			return data, nil
		}
		fl, ok := nc.inflight[id]
		if !ok {
			break
		}
		if !fl.prefetch {
			c.misses++
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
	c.misses++
	fl := &inflightLoad{done: make(chan struct{})}
	nc.inflight[id] = fl
	c.mu.Unlock()

	fl.data, fl.err = load()

	c.mu.Lock()
	delete(nc.inflight, id)
	var events []CacheEvent
	if fl.err == nil {
		events, _ = c.insertLocked(nc, node, id, fl.data)
	}
	obs := c.obs
	c.mu.Unlock()
	close(fl.done)
	if obs != nil {
		for _, ev := range events {
			obs(ev)
		}
	}
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
	_, cached := nc.data[id]
	_, loading := nc.inflight[id]
	if cached || loading || nc.meta.bytes+nc.reserved+size > c.budget {
		c.mu.Unlock()
		return false
	}
	c.prefetches++
	nc.reserved += size
	fl := &inflightLoad{done: make(chan struct{}), prefetch: true}
	nc.inflight[id] = fl
	c.mu.Unlock()

	go func() {
		fl.data, fl.err = load()
		c.mu.Lock()
		delete(nc.inflight, id)
		nc.reserved -= size
		var ev *CacheEvent
		if fl.err != nil {
			c.prefetchFailed++
		} else if size := int64(len(fl.data)); nc.meta.fill(id, size, c.budget) {
			nc.data[id] = fl.data
			c.bytes += size
			ev = &CacheEvent{Kind: CachePrefetch, Block: id, Node: node, Bytes: size}
		}
		obs := c.obs
		c.mu.Unlock()
		close(fl.done)
		if obs != nil && ev != nil {
			obs(*ev)
		}
	}()
	return true
}

// Hint forwards scheduler guidance to every shard's policy and
// remembers the newest hint per file for shards created later. Callers
// outside the package go through Store.HandleScanHint, which sets the
// hint's Cycle.
func (c *BlockCache) Hint(h ScanHint) {
	c.mu.Lock()
	c.lastHints[h.File] = h
	for _, nc := range c.nodes {
		nc.meta.policy.Hint(h)
	}
	c.mu.Unlock()
}

// insertLocked caches a demand read's data on nc via the shard's
// policy, evicting victims until the shard fits its budget. Blocks the
// shard does not keep — larger than the whole budget, squeezed out by
// pins, or needed later than every other resident — are served but not
// kept. Returns the eviction events to fire once the lock is released
// and whether the block stayed cached.
func (c *BlockCache) insertLocked(nc *nodeCache, node NodeID, id BlockID, data []byte) ([]CacheEvent, bool) {
	before := nc.meta.bytes
	evicted, kept := nc.meta.admit(id, int64(len(data)), c.budget)
	var events []CacheEvent
	for _, v := range evicted {
		sz := int64(len(nc.data[v]))
		delete(nc.data, v)
		c.evictions++
		events = append(events, CacheEvent{Kind: CacheEvict, Block: v, Node: node, Bytes: sz})
	}
	if kept {
		nc.data[id] = data
	}
	c.bytes += nc.meta.bytes - before
	return events, kept
}

// Contains reports whether the block is currently cached on node's
// shard (without touching recency order).
func (c *BlockCache) Contains(id BlockID, node NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc, ok := c.nodes[node]
	if !ok {
		return false
	}
	_, ok = nc.data[id]
	return ok
}

// Stats returns a snapshot of cumulative cache accounting.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pinned int64
	for _, nc := range c.nodes {
		pinned += nc.meta.pinnedBytes()
	}
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		Prefetches:     c.prefetches,
		PrefetchFailed: c.prefetchFailed,
		Bytes:          c.bytes,
		PinnedBytes:    pinned,
	}
}

// ResetStats zeroes every cumulative counter (between experiment runs):
// hits, misses, evictions, prefetches and prefetch failures. Cached
// contents — and thus the Bytes/PinnedBytes gauges — are kept.
func (c *BlockCache) ResetStats() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.prefetches, c.prefetchFailed = 0, 0
	c.mu.Unlock()
}
