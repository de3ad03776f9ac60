// Eviction policies: the pluggable replacement layer under MetaCache,
// the decision core every BlockCache runs.
//
// The S^3 access pattern — a circular scan that returns to every block
// exactly one cycle later — is the textbook adversary for LRU: when the
// budget is smaller than the cycle, LRU evicts each block just before
// the cursor comes back to it and the hit ratio collapses to zero
// (bench/cache-cliff.jsonl's 2GB/node budget). The fix is not a bigger
// cache but a scan-aware policy, so the replacement decision is factored
// out behind EvictionPolicy and two implementations ship:
//
//	lru    — the original behavior, kept as the baseline.
//	cursor — Belady's MIN for the circular scan, driven by ScanHint from
//	         the JQM cursor: a hinted file's residents are ranked by how
//	         soon the cursor reaches them, and the one it reaches last —
//	         the block scanned most recently — goes first. A newcomer the
//	         scan has just read is needed a whole cycle later, so a full
//	         shard serves it uncached rather than displace a block the
//	         cursor reaches sooner: a cache of C blocks over an N-block
//	         cycle reads N−C blocks a cycle, the least any policy can.
//
// Policies are metadata-only — they see block ids and sizes, never
// contents — so they sit in MetaCache, which the simulator prices with
// and every BlockCache wraps. That is what keeps sim and engine cache
// cells comparable by construction.
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
//   - Pin lists the blocks the cursor reaches next, in scan order (the
//     cursor segment and the one after it): its first block is where
//     the cursor stands. The cursor policy pins the run from the first
//     to the last until the scan reads each block. A hint with no pins
//     leaves the file unranked (plain LRU).
//   - Prefetch lists the blocks worth reading ahead (the segment after
//     the cursor) — empty when the scheduler cannot guarantee the
//     segment will actually be scanned. Readahead only fills free room.
//   - Cycle is the file's block count: a block the cursor leaves comes
//     round again Cycle blocks later. dfs.Store and the sim executor
//     set it from the file, so it never crosses the wire; a hint
//     without it ranks nothing.
type ScanHint struct {
	File     string
	Pin      [][]BlockID
	Prefetch []BlockID
	Cycle    int
}

// EvictionPolicy decides which resident block a cache shard discards
// next. Implementations track residency metadata only (ids and sizes);
// the cache owns the bytes, the budget arithmetic and the locking —
// every method is called with the owning cache's lock held.
//
// The contract shared by all policies (fuzzed in FuzzBlockCache):
//
//   - Admit/Remove bracket residency: a block is resident from Admit
//     until Remove, and Touch/Victim only ever see resident blocks. A
//     demand read admits and then touches its block; readahead only
//     admits it.
//   - Victim returns a resident block, never one that Pinned reports
//     true for; ok=false means every resident block is pinned. It may
//     name the block just admitted: the shard then serves it uncached.
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
	// Hint applies scheduler guidance (the cursor and its pins).
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

// cursorPolicy ranks each hinted file's residents by when the cursor
// next reaches them and evicts the one it reaches last. A block read
// since the cursor last moved is not needed again until the next cycle,
// so it ranks a cycle further out than its position says.
//
// Some residents the cursor will not come back to, and they go first,
// least recently used first: blocks of a file with no hint; blocks of a
// drained file, which got no hint while the other hinted cursors
// advanced a whole cycle of it; and blocks their own cursor passed a
// whole cycle ago without reading them (another worker's share since a
// membership change). Without hints the policy is plain LRU.
type cursorPolicy struct {
	entries map[BlockID]*list.Element // value: *cursorEntry
	order   *list.List                // front = most recently used
	scans   map[string]*cursorScan
	clock   int // blocks the hinted cursors have advanced, all files
	moves   int // cursor moves so far: names each scan epoch
}

type cursorEntry struct {
	id   BlockID
	read int // its file's scan epoch when it was last read
	seen int // its file's progress when it was last read or admitted
}

// cursorScan is one file's newest hint, applied at clock time at: the
// cursor stands at block cursor of cycle and pins the window blocks from
// it on. Its move there opened epoch and brought the blocks it has
// advanced in all to progress.
type cursorScan struct {
	cursor, cycle, window int
	at, epoch, progress   int
}

func newCursorPolicy() *cursorPolicy {
	return &cursorPolicy{
		entries: make(map[BlockID]*list.Element),
		order:   list.New(),
		scans:   make(map[string]*cursorScan),
	}
}

func (p *cursorPolicy) Name() string { return PolicyCursor }

func (p *cursorPolicy) Touch(id BlockID) {
	el, ok := p.entries[id]
	if !ok {
		return
	}
	p.order.MoveToFront(el)
	if s := p.scans[id.File]; s != nil {
		e := el.Value.(*cursorEntry)
		e.read, e.seen = s.epoch, s.progress
	}
}

func (p *cursorPolicy) Admit(id BlockID, size int64) {
	e := &cursorEntry{id: id}
	if s := p.scans[id.File]; s != nil {
		e.seen = s.progress
	}
	p.entries[id] = p.order.PushFront(e)
}

// Victim returns the least recently used resident the cursor will not
// come back to if there is one, else the unpinned block it reaches
// last. The walk visits every resident, about 30 ns each on a 2-core
// x86 host: cheap beside a block read at hundreds of residents; a shard
// of thousands of small blocks would want them indexed by position.
func (p *cursorPolicy) Victim() (BlockID, bool) {
	var victim BlockID
	found, latest := false, 0
	for el := p.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cursorEntry)
		s := p.scans[e.id.File]
		if p.stale(s, e) {
			return e.id, true
		}
		if s.pinned(e) {
			continue
		}
		due := s.at + s.ahead(e.id) - p.clock
		if e.read == s.epoch {
			due += s.cycle
		}
		if !found || due > latest {
			victim, found, latest = e.id, true, due
		}
	}
	return victim, found
}

func (p *cursorPolicy) Remove(id BlockID) {
	if el, ok := p.entries[id]; ok {
		p.order.Remove(el)
		delete(p.entries, id)
	}
}

// Hint moves the file's cursor to its first pinned block, opening a
// new epoch when the cursor moved. A hint with no pins or no Cycle
// withdraws the file's. It allocates only for a file's first hint:
// admission applies one per map task.
func (p *cursorPolicy) Hint(h ScanHint) {
	var first, last BlockID
	pins := 0
	for _, seg := range h.Pin {
		if len(seg) > 0 {
			if pins == 0 {
				first = seg[0]
			}
			last, pins = seg[len(seg)-1], pins+len(seg)
		}
	}
	s := p.scans[h.File]
	if pins == 0 || h.Cycle <= 0 {
		delete(p.scans, h.File)
		return
	}
	if s == nil {
		s = &cursorScan{cursor: first.Index, epoch: -1}
		p.scans[h.File] = s
	}
	moved := mod(first.Index-s.cursor, h.Cycle)
	if moved > 0 || s.epoch < 0 {
		p.moves++
		s.epoch, s.progress = p.moves, s.progress+moved
	}
	p.clock += moved
	s.at, s.cursor, s.cycle = p.clock, first.Index, h.Cycle
	s.window = mod(last.Index-first.Index, h.Cycle) + 1
}

func (p *cursorPolicy) Pinned(id BlockID) bool {
	el, ok := p.entries[id]
	if !ok {
		return false
	}
	e, s := el.Value.(*cursorEntry), p.scans[id.File]
	return !p.stale(s, e) && s.pinned(e)
}

// stale reports whether the cursor will not come back to e.
func (p *cursorPolicy) stale(s *cursorScan, e *cursorEntry) bool {
	return s == nil || p.clock-s.at >= s.cycle || s.progress-e.seen > s.cycle
}

// pinned: inside the window and not yet read by this pass.
func (s *cursorScan) pinned(e *cursorEntry) bool {
	return e.read != s.epoch && s.ahead(e.id) < s.window
}

// ahead is how many blocks the cursor moves before it reaches id.
func (s *cursorScan) ahead(id BlockID) int { return mod(id.Index-s.cursor, s.cycle) }

func mod(a, n int) int { return (a%n + n) % n }

// cacheShard is one node's shard of a MetaCache: residency, byte
// accounting and the eviction loop. A BlockCache keeps the contents of
// exactly the blocks its shards hold.
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

// admit caches a demand read's block and evicts victims until the
// shard fits budget. kept=false means the newcomer itself was
// discarded: it exceeds the whole budget, every other resident is
// pinned, or the policy needs every other resident sooner than it.
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
	s.policy.Touch(id)
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

// fill caches a readahead block if it fits the free room, and reports
// whether it did: readahead never evicts, for every resident is a block
// the cursor comes back to.
func (s *cacheShard) fill(id BlockID, size, budget int64) bool {
	if s.has(id) || s.bytes+size > budget {
		return false
	}
	s.policy.Admit(id, size)
	s.sizes[id] = size
	s.bytes += size
	return true
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
