// MetaCache: the metadata-only twin of BlockCache.
//
// The simulator must price cache hits without holding block contents,
// and differential tests must prove that pricing tracks the real cache
// block-for-block. Both needs are served by running the *same*
// policy/shard machinery (cacheShard, EvictionPolicy) over ids and
// sizes only: a MetaCache configured like a BlockCache makes identical
// hit/miss/evict decisions on the same access sequence by
// construction, because the decisions come from the same code.
//
// MetaCache is single-threaded by contract (the sim executor and tests
// drive it from one goroutine), so it has no lock and no in-flight
// table — a Prefetch lands instantly, modelling the engine's ideal case
// where the readahead completes during the overlapped reduce stage.
package dfs

import "fmt"

// MetaCache mirrors BlockCache's admission, eviction and prefetch
// decisions over block metadata alone. Not safe for concurrent use.
type MetaCache struct {
	budget int64
	policy string

	nodes          map[NodeID]*cacheShard
	lastHints      map[string]ScanHint
	bytes          int64
	hits           int64
	misses         int64
	evictions      int64
	prefetches     int64
	prefetchFailed int64
}

// NewMetaCache creates a metadata-only cache with the same per-node
// budget and policy semantics as NewBlockCachePolicy.
func NewMetaCache(bytesPerNode int64, policy string) (*MetaCache, error) {
	if bytesPerNode <= 0 {
		return nil, fmt.Errorf("dfs: cache budget must be positive, got %d bytes", bytesPerNode)
	}
	if _, err := NewPolicy(policy); err != nil {
		return nil, err
	}
	return &MetaCache{
		budget:    bytesPerNode,
		policy:    policy,
		nodes:     make(map[NodeID]*cacheShard),
		lastHints: make(map[string]ScanHint),
	}, nil
}

// Budget returns the per-node byte budget.
func (m *MetaCache) Budget() int64 { return m.budget }

// Policy returns the eviction policy name.
func (m *MetaCache) Policy() string { return m.policy }

func (m *MetaCache) shard(node NodeID) *cacheShard {
	s, ok := m.nodes[node]
	if !ok {
		pol, err := NewPolicy(m.policy)
		if err != nil {
			panic(err) // unreachable: name validated at construction
		}
		for _, h := range m.lastHints {
			pol.Hint(h)
		}
		s = newCacheShard(pol)
		m.nodes[node] = s
	}
	return s
}

// Access records a read of the block on node's shard and reports
// whether it hit. On a miss the block is admitted with the given size,
// evicting victims exactly as BlockCache would.
func (m *MetaCache) Access(id BlockID, node NodeID, size int64) bool {
	s := m.shard(node)
	if s.access(id) {
		m.hits++
		return true
	}
	m.misses++
	before := s.bytes
	evicted, _ := s.admit(id, size, m.budget)
	m.evictions += int64(len(evicted))
	m.bytes += s.bytes - before
	return false
}

// Prefetch models PrefetchAsync: it admits the block speculatively
// under the same issue condition (not resident, fits the free room) and
// reports whether a prefetch was issued. There is no in-flight state —
// the block is warm immediately, the ideal the engine's readahead
// approaches when the load finishes within the overlapped reduce stage.
func (m *MetaCache) Prefetch(id BlockID, node NodeID, size int64) bool {
	if !m.shard(node).fill(id, size, m.budget) {
		return false
	}
	m.prefetches++
	m.bytes += size
	return true
}

// Hint forwards scheduler guidance to every shard's policy, remembering
// it for shards created later (same semantics as BlockCache.Hint).
func (m *MetaCache) Hint(h ScanHint) {
	m.lastHints[h.File] = h
	for _, s := range m.nodes {
		s.policy.Hint(h)
	}
}

// Contains reports whether the block is resident on node's shard.
func (m *MetaCache) Contains(id BlockID, node NodeID) bool {
	s, ok := m.nodes[node]
	return ok && s.has(id)
}

// CachedBytes returns how many bytes of the given blocks are resident
// anywhere, each block counted at most once.
func (m *MetaCache) CachedBytes(blocks []BlockID) int64 {
	var total int64
	for _, b := range blocks {
		for _, s := range m.nodes {
			if sz, ok := s.sizes[b]; ok {
				total += sz
				break
			}
		}
	}
	return total
}

// Stats returns a snapshot of cumulative accounting, directly
// comparable with BlockCache.Stats.
func (m *MetaCache) Stats() CacheStats {
	var pinned int64
	for _, s := range m.nodes {
		pinned += s.pinnedBytes()
	}
	return CacheStats{
		Hits:           m.hits,
		Misses:         m.misses,
		Evictions:      m.evictions,
		Prefetches:     m.prefetches,
		PrefetchFailed: m.prefetchFailed,
		Bytes:          m.bytes,
		PinnedBytes:    pinned,
	}
}

// ResetStats zeroes every cumulative counter, keeping residency.
func (m *MetaCache) ResetStats() {
	m.hits, m.misses, m.evictions = 0, 0, 0
	m.prefetches, m.prefetchFailed = 0, 0
}
