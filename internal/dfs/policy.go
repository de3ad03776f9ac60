// Eviction policies: the pluggable replacement layer under BlockCache
// and MetaCache.
//
// The S^3 access pattern — a circular scan that returns to every block
// exactly one cycle later — is the textbook adversary for LRU: when the
// budget is smaller than the cycle, LRU evicts each block just before
// the cursor comes back to it and the hit ratio collapses to zero
// (bench/cache-cliff.jsonl's 2GB/node budget). The fix is not a bigger cache but a
// scan-aware policy, so the replacement decision is factored out behind
// EvictionPolicy and two implementations ship:
//
//	lru    — the original behavior, kept as the baseline.
//	cursor — segment-granular pinning driven by ScanHint from the JQM
//	         cursor: the next-to-be-scanned segments are pinned
//	         (Victim never selects them), just-scanned segments are
//	         demoted to evict-first. With readahead this approximates
//	         Belady for the circular scan: keep exactly what the
//	         cursor will want next.
//
// Policies are metadata-only — they see block ids and sizes, never
// contents — so the identical implementations drive both the real
// BlockCache and the simulator's MetaCache pricing twin. That sharing
// is what keeps sim and engine cache cells comparable by construction.
package dfs

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
)

// Policy names accepted by NewBlockCachePolicy, Store.EnableCachePolicy
// and the workload schema's cachePolicy field.
const (
	PolicyLRU    = "lru"
	PolicyCursor = "cursor"
)

// Policies returns the supported eviction policy names in canonical
// order (baseline first).
func Policies() []string { return []string{PolicyLRU, PolicyCursor} }

// ValidPolicy reports whether name is a supported eviction policy.
func ValidPolicy(name string) bool { return slices.Contains(Policies(), name) }

// ScanHint is the scheduler's cache guidance, emitted by the JQM each
// time its circular cursor advances (core.S3.SetScanHinter). One hint
// carries the full picture for one file, so applying it is idempotent:
//
//   - Pin lists the upcoming segments in cursor order (typically the
//     cursor segment and the one after it). It *replaces* the previous
//     pin set for File — segments that left the window unpin
//     implicitly.
//   - Demote lists the just-scanned segment's blocks: under S^3 every
//     active job has consumed them, so they are the least valuable
//     bytes in the cache and drop to evict-first order.
//   - Prefetch lists the blocks worth reading ahead (the segment after
//     the cursor) — empty when the scheduler cannot guarantee the
//     segment will actually be scanned. Only the cursor policy acts on
//     it; pins and demotes are advice any policy may use.
type ScanHint struct {
	File     string
	Pin      [][]BlockID
	Demote   []BlockID
	Prefetch []BlockID
}

// EvictionPolicy decides which resident block a cache shard discards
// next. Implementations track residency metadata only (ids and sizes);
// the cache owns the bytes, the budget arithmetic and the locking —
// every method is called with the owning cache's lock held.
//
// The contract shared by all policies (fuzzed in FuzzBlockCache):
//
//   - Admit/Remove bracket residency: a block is resident from Admit
//     until Remove, and Touch/Victim only ever see resident blocks.
//   - Victim returns a resident block, never one that Pinned reports
//     true for; ok=false means every resident block is pinned.
//   - Hint is advisory: a policy may ignore it entirely (lru).
type EvictionPolicy interface {
	// Name returns the policy's registry name.
	Name() string
	// Touch records a read of a resident block.
	Touch(id BlockID)
	// Admit records a block becoming resident with the given size.
	Admit(id BlockID, size int64)
	// Victim returns the next block to evict, or ok=false when no
	// resident block may be evicted (all pinned).
	Victim() (BlockID, bool)
	// Remove records a block leaving residency (eviction or purge).
	Remove(id BlockID)
	// Hint applies scheduler guidance (pins, demotions).
	Hint(h ScanHint)
	// Pinned reports whether the block is pin-protected right now.
	Pinned(id BlockID) bool
}

// NewPolicy builds the named eviction policy.
func NewPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case PolicyLRU:
		return newLRUPolicy(), nil
	case PolicyCursor:
		return newCursorPolicy(), nil
	}
	return nil, fmt.Errorf("dfs: unknown cache policy %q (want %s)", name, strings.Join(Policies(), "|"))
}

// lruPolicy is the baseline: strict least-recently-used.
type lruPolicy struct {
	entries map[BlockID]*list.Element
	order   *list.List // front = most recently used
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{entries: make(map[BlockID]*list.Element), order: list.New()}
}

func (p *lruPolicy) Name() string { return PolicyLRU }

func (p *lruPolicy) Touch(id BlockID) {
	if el, ok := p.entries[id]; ok {
		p.order.MoveToFront(el)
	}
}

func (p *lruPolicy) Admit(id BlockID, size int64) {
	p.entries[id] = p.order.PushFront(id)
}

func (p *lruPolicy) Victim() (BlockID, bool) {
	back := p.order.Back()
	if back == nil {
		return BlockID{}, false
	}
	return back.Value.(BlockID), true
}

func (p *lruPolicy) Remove(id BlockID) {
	if el, ok := p.entries[id]; ok {
		p.order.Remove(el)
		delete(p.entries, id)
	}
}

func (p *lruPolicy) Hint(ScanHint)       {}
func (p *lruPolicy) Pinned(BlockID) bool { return false }

// cursorPolicy keeps an LRU order modulated by scheduler hints: blocks
// of the pinned (upcoming) segments are never selected as victims, and
// demoted (just-scanned) blocks drop to the back of the order, making
// them the first to go. Without hints it degenerates to plain LRU, so
// schedulers that never emit ScanHints (fifo, mrshare) still behave
// sanely under it.
type cursorPolicy struct {
	entries map[BlockID]*list.Element
	order   *list.List // front = most recently used / admitted
	// pins holds the pinned block set per file; a hint replaces its
	// file's set wholesale.
	pins map[string]map[BlockID]struct{}
}

func newCursorPolicy() *cursorPolicy {
	return &cursorPolicy{
		entries: make(map[BlockID]*list.Element),
		order:   list.New(),
		pins:    make(map[string]map[BlockID]struct{}),
	}
}

func (p *cursorPolicy) Name() string { return PolicyCursor }

func (p *cursorPolicy) Touch(id BlockID) {
	if el, ok := p.entries[id]; ok {
		p.order.MoveToFront(el)
	}
}

func (p *cursorPolicy) Admit(id BlockID, size int64) {
	p.entries[id] = p.order.PushFront(id)
}

// Victim walks from the LRU end skipping pinned blocks. The walk is
// linear, but the pinned window is at most two segments, so in
// practice the first unpinned candidate sits at or near the back.
func (p *cursorPolicy) Victim() (BlockID, bool) {
	for el := p.order.Back(); el != nil; el = el.Prev() {
		id := el.Value.(BlockID)
		if !p.Pinned(id) {
			return id, true
		}
	}
	return BlockID{}, false
}

func (p *cursorPolicy) Remove(id BlockID) {
	if el, ok := p.entries[id]; ok {
		p.order.Remove(el)
		delete(p.entries, id)
	}
}

// Hint replaces the file's pin set with the hinted upcoming segments
// and demotes the just-scanned blocks to evict-first order.
func (p *cursorPolicy) Hint(h ScanHint) {
	pinned := make(map[BlockID]struct{})
	for _, seg := range h.Pin {
		for _, id := range seg {
			pinned[id] = struct{}{}
		}
	}
	p.pins[h.File] = pinned
	for _, id := range h.Demote {
		if _, still := pinned[id]; still {
			continue
		}
		if el, ok := p.entries[id]; ok {
			p.order.MoveToBack(el)
		}
	}
}

func (p *cursorPolicy) Pinned(id BlockID) bool {
	_, ok := p.pins[id.File][id]
	return ok
}

// cacheShard is the metadata half of one cache shard: residency, byte
// accounting and the eviction loop, shared verbatim between the real
// BlockCache (which additionally holds contents) and the simulator's
// MetaCache pricing twin — so the two cannot drift apart on *which*
// blocks are warm.
type cacheShard struct {
	policy EvictionPolicy
	sizes  map[BlockID]int64
	bytes  int64
}

func newCacheShard(policy EvictionPolicy) *cacheShard {
	return &cacheShard{policy: policy, sizes: make(map[BlockID]int64)}
}

// has reports residency without touching recency state.
func (s *cacheShard) has(id BlockID) bool {
	_, ok := s.sizes[id]
	return ok
}

// access records a read; it returns true (and updates recency) when the
// block is resident.
func (s *cacheShard) access(id BlockID) bool {
	if !s.has(id) {
		return false
	}
	s.policy.Touch(id)
	return true
}

// admit makes id resident and evicts victims until the shard fits
// budget. kept=false means the incoming block itself was discarded:
// either it exceeds the whole budget, or every other resident block is
// pinned — pinned residents are never evicted, and the budget is never
// exceeded, so the newcomer is the one to go.
func (s *cacheShard) admit(id BlockID, size, budget int64) (evicted []BlockID, kept bool) {
	if size > budget {
		return nil, false
	}
	if s.has(id) {
		// Another path cached it already (a faulted read retrying while
		// an earlier load completes); keep the existing entry.
		return nil, true
	}
	s.policy.Admit(id, size)
	s.sizes[id] = size
	s.bytes += size
	for s.bytes > budget {
		v, ok := s.policy.Victim()
		if !ok || v == id {
			s.remove(id)
			return evicted, false
		}
		s.remove(v)
		evicted = append(evicted, v)
	}
	return evicted, true
}

// remove drops id from residency (no-op when absent).
func (s *cacheShard) remove(id BlockID) {
	size, ok := s.sizes[id]
	if !ok {
		return
	}
	s.policy.Remove(id)
	delete(s.sizes, id)
	s.bytes -= size
}

// pinnedBytes sums the sizes of pin-protected resident blocks.
func (s *cacheShard) pinnedBytes() int64 {
	var total int64
	for id, size := range s.sizes {
		if s.policy.Pinned(id) {
			total += size
		}
	}
	return total
}
