// MetaCache: the block cache's decision and accounting core.
//
// A MetaCache holds what every cache decision needs and no block
// contents: one cacheShard per node (residency, byte accounting and the
// eviction rule), the newest scan hint per file, replayed onto shards
// created later, and the hit/miss/eviction/prefetch counters. Two
// caches run on it. The simulator prices cache hits with a bare
// MetaCache; BlockCache wraps one with the contents, a lock and the
// in-flight loads. So the simulator and the engine admit, evict and
// prefetch alike on the same access sequence because they run the same
// code, not because a test compares them.
//
// A bare MetaCache is single-threaded by contract (the sim executor and
// tests drive it from one goroutine; BlockCache calls it under its
// lock), so a Prefetch lands instantly, modelling the engine's ideal
// case where the readahead completes during the overlapped reduce stage.
package dfs

import (
	"fmt"
	"strings"
)

// CacheStats is a snapshot of cumulative cache accounting. Hits,
// Misses, Evictions, Prefetches and PrefetchFailed are monotonic
// counters; Bytes and PinnedBytes are gauges of
// the current footprint. A run's totals, a worker's heartbeat ledger
// and the cluster's sum over workers are all one CacheStats.
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

// Add accumulates other into s. Bytes and PinnedBytes are
// point-in-time footprints, so footprints sum across disjoint caches
// (one per worker).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Prefetches += other.Prefetches
	s.PrefetchFailed += other.PrefetchFailed
	s.Bytes += other.Bytes
	s.PinnedBytes += other.PinnedBytes
}

// MetaCache makes a per-node, byte-budgeted cache's admission, eviction
// and prefetch decisions over block metadata alone, and counts them.
// Not safe for concurrent use.
type MetaCache struct {
	budget int64 // per-node byte budget
	hinted bool  // takes scan hints: the cursor policy (lru drops them)

	nodes          map[NodeID]*cacheShard
	lastHints      map[string]ScanHint // per file; replayed onto fresh shards
	hits           int64
	misses         int64
	evictions      int64
	prefetches     int64
	prefetchFailed int64
}

// NewMetaCache creates a metadata-only cache giving every node shard
// the same byte budget and the named eviction policy (see Policies).
func NewMetaCache(bytesPerNode int64, policy string) (*MetaCache, error) {
	if bytesPerNode <= 0 {
		return nil, fmt.Errorf("dfs: cache budget must be positive, got %d bytes", bytesPerNode)
	}
	if !ValidPolicy(policy) {
		return nil, fmt.Errorf("dfs: unknown cache policy %q (want %s)", policy, strings.Join(Policies(), "|"))
	}
	return &MetaCache{
		budget:    bytesPerNode,
		hinted:    policy == PolicyCursor,
		nodes:     make(map[NodeID]*cacheShard),
		lastHints: make(map[string]ScanHint),
	}, nil
}

func (m *MetaCache) shard(node NodeID) *cacheShard {
	s, ok := m.nodes[node]
	if !ok {
		s = newCacheShard()
		// Replay the newest hint per file so a shard created mid-pass
		// starts with the current cursors. A fresh shard has no clock
		// to advance, so replay order across files is irrelevant.
		for _, h := range m.lastHints {
			s.hint(h)
		}
		m.nodes[node] = s
	}
	return s
}

// Access records a read of the block on node's shard and reports
// whether it hit. On a miss the block is admitted with the given size,
// evicting victims exactly as a BlockCache demand read does.
func (m *MetaCache) Access(id BlockID, node NodeID, size int64) bool {
	s := m.shard(node)
	if m.hit(s, id) {
		return true
	}
	m.misses++
	m.admit(s, id, size)
	return false
}

// hit counts a read of id on s when it is resident there.
func (m *MetaCache) hit(s *cacheShard, id BlockID) bool {
	if !s.access(id) {
		return false
	}
	m.hits++
	return true
}

// admit caches a missed block on s, counting the victims it evicted.
func (m *MetaCache) admit(s *cacheShard, id BlockID, size int64) (evicted []BlockID, kept bool) {
	evicted, kept = s.admit(id, size, m.budget)
	m.evictions += int64(len(evicted))
	return evicted, kept
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
	return true
}

// Hint applies scheduler guidance to every shard, remembers the newest
// hint per file for shards created later, and reports whether it did:
// an lru cache drops every hint, so its shards stay plain LRU and it
// reads nothing ahead. Callers outside the package go through
// Store.HandleScanHint, which sets the hint's Cycle.
func (m *MetaCache) Hint(h ScanHint) bool {
	if !m.hinted {
		return false
	}
	m.lastHints[h.File] = h
	for _, s := range m.nodes {
		s.hint(h)
	}
	return true
}

// Contains reports whether the block is resident on node's shard
// (without touching recency order).
func (m *MetaCache) Contains(id BlockID, node NodeID) bool {
	s, ok := m.nodes[node]
	return ok && s.has(id)
}

// Stats returns a snapshot of cumulative accounting.
func (m *MetaCache) Stats() CacheStats {
	st := CacheStats{
		Hits:           m.hits,
		Misses:         m.misses,
		Evictions:      m.evictions,
		Prefetches:     m.prefetches,
		PrefetchFailed: m.prefetchFailed,
	}
	for _, s := range m.nodes {
		st.Bytes += s.bytes
		st.PinnedBytes += s.pinnedBytes()
	}
	return st
}
