// Eviction: the one replacement rule every cache shard runs, under
// MetaCache, the decision core every BlockCache runs.
//
// The S^3 access pattern — a circular scan that returns to every block
// exactly one cycle later — is the textbook adversary for LRU: when the
// budget is smaller than the cycle, LRU evicts each block just before
// the cursor comes back to it and the hit ratio collapses to zero
// (bench/cache-cliff.jsonl's 2GB/node budget). The fix is not a bigger
// cache but a scan-aware rule: Belady's MIN for the circular scan,
// driven by ScanHint from the JQM cursor. A hinted file's residents are
// ranked by how soon the cursor reaches them, and the one it reaches
// last — the block scanned most recently — goes first. A newcomer the
// scan has just read is needed a whole cycle later, so a full shard
// serves it uncached rather than displace a block the cursor reaches
// sooner: a cache of C blocks over an N-block cycle reads N−C blocks a
// cycle, the least any policy can. Residents of unhinted files go least
// recently used first, so a shard that gets no hints is plain LRU, and
// that is all the two policy names choose between:
//
//	lru    — the baseline: the cache drops every hint (MetaCache.Hint).
//	cursor — the cache ranks by the hints and reads ahead.
//
// A shard is metadata-only — it sees block ids and sizes, never
// contents — so it sits in MetaCache, which the simulator prices with
// and every BlockCache wraps. That is what keeps sim and engine cache
// cells comparable by construction.
package dfs

import (
	"container/list"
	"slices"
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
//     the cursor stands. A cursor cache pins the run from the first to
//     the last until the scan reads each block; an lru cache drops every
//     hint. A hint with no pins leaves the file unranked (plain LRU).
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

// cacheShard is one node's shard of a MetaCache: residency, byte
// accounting and the eviction rule, every method called with the
// owning cache's lock held. A BlockCache keeps the contents of exactly
// the blocks its shards hold.
//
// A shard ranks each hinted file's residents by when the cursor next
// reaches them and evicts the one it reaches last. A block read since
// the cursor last moved is not needed again until the next cycle, so
// it ranks a cycle further out than its position says.
//
// Some residents the cursor will not come back to, and they go first,
// least recently used first: blocks of a file with no hint; blocks of a
// drained file, which got no hint while the other hinted cursors
// advanced a whole cycle of it; and blocks their own cursor passed a
// whole cycle ago without reading them (another worker's share since a
// membership change). Without hints the shard is plain LRU.
type cacheShard struct {
	entries map[BlockID]*list.Element // value: *shardEntry
	order   *list.List                // front = most recently used
	bytes   int64
	scans   map[string]*cursorScan
	clock   int // blocks the hinted cursors have advanced, all files
	moves   int // cursor moves so far: names each scan epoch
}

// shardEntry is one resident block.
type shardEntry struct {
	id   BlockID
	size int64
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

func newCacheShard() *cacheShard {
	return &cacheShard{
		entries: make(map[BlockID]*list.Element),
		order:   list.New(),
		scans:   make(map[string]*cursorScan),
	}
}

// has reports residency without touching recency state.
func (s *cacheShard) has(id BlockID) bool {
	_, ok := s.entries[id]
	return ok
}

// access records a read; it returns true (and updates recency) when the
// block is resident.
func (s *cacheShard) access(id BlockID) bool {
	el, ok := s.entries[id]
	if ok {
		s.touch(el)
	}
	return ok
}

// touch records a read of a resident block.
func (s *cacheShard) touch(el *list.Element) {
	s.order.MoveToFront(el)
	e := el.Value.(*shardEntry)
	if sc := s.scans[e.id.File]; sc != nil {
		e.read, e.seen = sc.epoch, sc.progress
	}
}

// insert makes id resident, most recently used.
func (s *cacheShard) insert(id BlockID, size int64) *list.Element {
	e := &shardEntry{id: id, size: size}
	if sc := s.scans[id.File]; sc != nil {
		e.seen = sc.progress
	}
	el := s.order.PushFront(e)
	s.entries[id] = el
	s.bytes += size
	return el
}

// admit caches a demand read's block and evicts victims until the
// shard fits budget. kept=false means the newcomer itself was
// discarded: it exceeds the whole budget, every other resident is
// pinned, or the cursor needs every other resident sooner than it.
func (s *cacheShard) admit(id BlockID, size, budget int64) (evicted []BlockID, kept bool) {
	if size > budget {
		return nil, false
	}
	if s.has(id) {
		// Another path cached it already (a faulted read retrying while
		// an earlier load completes); keep the existing entry.
		return nil, true
	}
	s.touch(s.insert(id, size))
	for s.bytes > budget {
		v, ok := s.victim()
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
	s.insert(id, size)
	return true
}

// remove drops id from residency (no-op when absent).
func (s *cacheShard) remove(id BlockID) {
	el, ok := s.entries[id]
	if !ok {
		return
	}
	s.order.Remove(el)
	delete(s.entries, id)
	s.bytes -= el.Value.(*shardEntry).size
}

// victim returns the least recently used resident the cursor will not
// come back to if there is one, else the unpinned block it reaches
// last; ok=false means every resident is pinned. It may name the block
// just admitted: admit then serves it uncached. The walk visits every
// resident, about 30 ns each on a 2-core x86 host: cheap beside a block
// read at hundreds of residents; a shard of thousands of small blocks
// would want them indexed by position.
func (s *cacheShard) victim() (BlockID, bool) {
	var victim BlockID
	found, latest := false, 0
	for el := s.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*shardEntry)
		sc := s.scans[e.id.File]
		if s.stale(sc, e) {
			return e.id, true
		}
		if sc.pinned(e) {
			continue
		}
		due := sc.at + sc.ahead(e.id) - s.clock
		if e.read == sc.epoch {
			due += sc.cycle
		}
		if !found || due > latest {
			victim, found, latest = e.id, true, due
		}
	}
	return victim, found
}

// hint moves the file's cursor to its first pinned block, opening a
// new epoch when the cursor moved. A hint with no pins or no Cycle
// withdraws the file's. It allocates only for a file's first hint:
// admission applies one per map task.
func (s *cacheShard) hint(h ScanHint) {
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
	sc := s.scans[h.File]
	if pins == 0 || h.Cycle <= 0 {
		delete(s.scans, h.File)
		return
	}
	if sc == nil {
		sc = &cursorScan{cursor: first.Index, epoch: -1}
		s.scans[h.File] = sc
	}
	moved := mod(first.Index-sc.cursor, h.Cycle)
	if moved > 0 || sc.epoch < 0 {
		s.moves++
		sc.epoch, sc.progress = s.moves, sc.progress+moved
	}
	s.clock += moved
	sc.at, sc.cursor, sc.cycle = s.clock, first.Index, h.Cycle
	sc.window = mod(last.Index-first.Index, h.Cycle) + 1
}

// pinned reports whether resident e is pin-protected right now.
func (s *cacheShard) pinned(e *shardEntry) bool {
	sc := s.scans[e.id.File]
	return !s.stale(sc, e) && sc.pinned(e)
}

// pinnedBytes sums the sizes of pin-protected resident blocks.
func (s *cacheShard) pinnedBytes() int64 {
	var total int64
	for el := s.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*shardEntry); s.pinned(e) {
			total += e.size
		}
	}
	return total
}

// stale reports whether the cursor will not come back to e.
func (s *cacheShard) stale(sc *cursorScan, e *shardEntry) bool {
	return sc == nil || s.clock-sc.at >= sc.cycle || sc.progress-e.seen > sc.cycle
}

// pinned: inside the window and not yet read by this pass.
func (s *cursorScan) pinned(e *shardEntry) bool {
	return e.read != s.epoch && s.ahead(e.id) < s.window
}

// ahead is how many blocks the cursor moves before it reaches id.
func (s *cursorScan) ahead(id BlockID) int { return mod(id.Index-s.cursor, s.cycle) }

func mod(a, n int) int { return (a%n + n) % n }
