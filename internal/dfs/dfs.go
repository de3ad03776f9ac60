// Package dfs implements the distributed-file-system substrate the
// schedulers operate on: files split into fixed-size blocks, block
// placement across nodes, and the segment organization that S^3 layers
// on top of the block list (paper §IV-B).
//
// The store is in-memory and single-process, but it preserves exactly
// the properties the scheduling problem depends on: a file is an
// ordered chain of blocks, each block lives on specific nodes, reading
// a block costs a scan, and a segment is a set of consecutive blocks
// sized to one round of cluster work. Every block read is counted, so
// experiments *measure* the scan savings of shared scheduling rather
// than assuming them.
package dfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeID identifies a storage/compute node in the cluster.
type NodeID int

// BlockID identifies one block of one file.
type BlockID struct {
	File  string // file name
	Index int    // 0-based position of the block within the file
}

// String renders the block id as "file#index".
func (b BlockID) String() string { return fmt.Sprintf("%s#%d", b.File, b.Index) }

// BlockSource supplies block contents on demand. Experiments at paper
// scale register metadata-only files and never read contents; the real
// execution engine registers materialized or generated sources.
type BlockSource interface {
	// ReadBlock returns the contents of block i. It must be safe for
	// concurrent use and must return the same bytes on every call.
	ReadBlock(i int) ([]byte, error)
}

// bytesSource is a BlockSource over pre-materialized block data.
type bytesSource struct{ blocks [][]byte }

func (s bytesSource) ReadBlock(i int) ([]byte, error) {
	if i < 0 || i >= len(s.blocks) {
		return nil, fmt.Errorf("dfs: block index %d out of range [0,%d)", i, len(s.blocks))
	}
	return s.blocks[i], nil
}

// funcSource adapts a generator function to BlockSource.
type funcSource struct {
	n   int
	gen func(i int) ([]byte, error)
}

func (s funcSource) ReadBlock(i int) ([]byte, error) {
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("dfs: block index %d out of range [0,%d)", i, s.n)
	}
	return s.gen(i)
}

// File describes one stored file: an ordered chain of equally sized
// blocks (the final block may be short), plus an optional content
// source.
type File struct {
	Name      string
	NumBlocks int
	BlockSize int64 // nominal block size in bytes
	LastSize  int64 // size of the final block (== BlockSize when exact)
	source    BlockSource
}

// BlockLen returns the size in bytes of block i.
func (f *File) BlockLen(i int) int64 {
	if i == f.NumBlocks-1 {
		return f.LastSize
	}
	return f.BlockSize
}

// Blocks returns the ordered list of the file's block ids.
func (f *File) Blocks() []BlockID {
	out := make([]BlockID, f.NumBlocks)
	for i := range out {
		out[i] = BlockID{File: f.Name, Index: i}
	}
	return out
}

// Stats holds cumulative scan accounting for a store.
type Stats struct {
	BlockReads   int64 // physical source scans (cache hits are not charged)
	BytesScanned int64 // total bytes returned by physical scans
	FailedReads  int64 // read attempts failed by the fault hook or the source
}

// ReadFault decides whether a read attempt of block id served by node
// should fail before touching the data. A nil hook never fails reads.
// Tests plug failing disks in here; production stores leave it unset.
type ReadFault func(id BlockID, node NodeID) error

// Store is the in-memory distributed block store.
type Store struct {
	mu        sync.RWMutex
	nodes     int
	replicas  int
	files     map[string]*File
	placement map[BlockID][]NodeID
	readFault ReadFault
	cache     *BlockCache

	blockReads   atomic.Int64
	bytesScanned atomic.Int64
	failedReads  atomic.Int64
}

// ErrNoSuchFile is returned when a file name is not registered.
var ErrNoSuchFile = errors.New("dfs: no such file")

// NewStore creates a store spanning the given number of nodes with the
// given replication factor (the paper uses 1). Blocks are placed
// round-robin with replicas on consecutive nodes, which mirrors how a
// rack-unaware HDFS placement spreads a large sequentially written
// file. Invalid arguments return an error so callers wiring the store
// from user input (flags, configs) can report them cleanly.
func NewStore(nodes, replicas int) (*Store, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("dfs: store needs at least one node, got %d", nodes)
	}
	if replicas <= 0 || replicas > nodes {
		return nil, fmt.Errorf("dfs: replication factor %d invalid for %d nodes (want 1..%d)", replicas, nodes, nodes)
	}
	return &Store{
		nodes:     nodes,
		replicas:  replicas,
		files:     make(map[string]*File),
		placement: make(map[BlockID][]NodeID),
	}, nil
}

// MustStore is NewStore for static configurations known to be valid
// (tests, examples); it panics on error.
func MustStore(nodes, replicas int) *Store {
	s, err := NewStore(nodes, replicas)
	if err != nil {
		panic(err)
	}
	return s
}

// SetReadFault installs a fault hook consulted on every block read.
// Pass nil to clear. Install before execution starts; the hook must be
// safe for concurrent use.
func (s *Store) SetReadFault(f ReadFault) {
	s.mu.Lock()
	s.readFault = f
	s.mu.Unlock()
}

// EnableCachePolicy installs a node-local block cache giving every node
// shard bytesPerNode of budget under the named eviction policy (see
// Policies; PolicyLRU is the baseline), and returns it. Subsequent
// ReadBlock/ReadBlockAt calls are served through the cache: hits skip
// the source (and the fault hook) entirely and are not charged to the
// scan counters. Install before execution starts. Wire the scheduler's
// hint stream to HandleScanHint to activate the cursor policy's pinning
// and prefetch.
func (s *Store) EnableCachePolicy(bytesPerNode int64, policy string) (*BlockCache, error) {
	c, err := NewBlockCachePolicy(bytesPerNode, policy)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cache = c
	s.mu.Unlock()
	return c, nil
}

// Cache returns the installed block cache, or nil when caching is off.
func (s *Store) Cache() *BlockCache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}

// CacheStats returns a snapshot of the cache counters (zero when
// caching is off).
func (s *Store) CacheStats() CacheStats {
	if c := s.Cache(); c != nil {
		return c.Stats()
	}
	return CacheStats{}
}

// Replicas returns the store's replication factor.
func (s *Store) Replicas() int { return s.replicas }

// AddFile registers a file from pre-materialized block data. Every
// block except the last must be the same length.
func (s *Store) AddFile(name string, blockSize int64, blocks [][]byte) (*File, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("dfs: file %q has no blocks", name)
	}
	for i, b := range blocks[:len(blocks)-1] {
		if int64(len(b)) != blockSize {
			return nil, fmt.Errorf("dfs: file %q block %d has %d bytes, want %d", name, i, len(b), blockSize)
		}
	}
	last := int64(len(blocks[len(blocks)-1]))
	if last > blockSize || last == 0 {
		return nil, fmt.Errorf("dfs: file %q last block has %d bytes, want 1..%d", name, last, blockSize)
	}
	f := &File{
		Name:      name,
		NumBlocks: len(blocks),
		BlockSize: blockSize,
		LastSize:  last,
		source:    bytesSource{blocks: blocks},
	}
	return f, s.register(f)
}

// AddGeneratedFile registers a file whose block contents are produced
// on demand by gen. All blocks report the nominal block size.
func (s *Store) AddGeneratedFile(name string, numBlocks int, blockSize int64, gen func(i int) ([]byte, error)) (*File, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("dfs: file %q has no blocks", name)
	}
	f := &File{
		Name:      name,
		NumBlocks: numBlocks,
		BlockSize: blockSize,
		LastSize:  blockSize,
		source:    funcSource{n: numBlocks, gen: gen},
	}
	return f, s.register(f)
}

// AddMetaFile registers a metadata-only file (no readable contents).
// The discrete-event simulator uses these: it needs block and segment
// structure but never block bytes.
func (s *Store) AddMetaFile(name string, numBlocks int, blockSize int64) (*File, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("dfs: file %q has no blocks", name)
	}
	f := &File{Name: name, NumBlocks: numBlocks, BlockSize: blockSize, LastSize: blockSize}
	return f, s.register(f)
}

func (s *Store) register(f *File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[f.Name]; dup {
		return fmt.Errorf("dfs: file %q already exists", f.Name)
	}
	s.files[f.Name] = f
	for i := 0; i < f.NumBlocks; i++ {
		// Round-robin home node, replicas on the consecutive nodes.
		locs := make([]NodeID, s.replicas)
		for r := range locs {
			locs[r] = NodeID((i + r) % s.nodes)
		}
		s.placement[BlockID{File: f.Name, Index: i}] = locs
	}
	return nil
}

// File returns the registered file with the given name.
func (s *Store) File(name string) (*File, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	return f, nil
}

// Locations returns the nodes holding replicas of the block, or nil if
// the block is unknown.
func (s *Store) Locations(id BlockID) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	locs := s.placement[id]
	out := make([]NodeID, len(locs))
	copy(out, locs)
	return out
}

// ReadBlock returns the contents of a block and charges the scan to the
// store's counters. One call == one physical scan of the block; shared
// scheduling shows up directly as fewer ReadBlock calls. Reads via
// ReadBlock are not attributed to a node; use ReadBlockAt when the
// serving node matters (fault injection, locality accounting).
func (s *Store) ReadBlock(id BlockID) ([]byte, error) {
	return s.ReadBlockAt(id, NodeID(-1))
}

// ReadBlockAt is ReadBlock attributed to the node serving the read.
// The installed ReadFault hook (if any) sees the block and node and may
// fail the attempt before any data is touched; failed attempts are not
// charged to the scan counters. When a cache is installed, hits are
// served from memory — skipping both the fault hook and the scan
// counters — while misses take the full disk path, so fault-injection
// semantics are unchanged for anything that actually touches disk.
func (s *Store) ReadBlockAt(id BlockID, node NodeID) ([]byte, error) {
	s.mu.RLock()
	f, ok := s.files[id.File]
	fault := s.readFault
	cache := s.cache
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, id.File)
	}
	load := s.loadFunc(f, id, node, fault)
	if cache == nil {
		return load()
	}
	return cache.Read(id, node, load)
}

// loadFunc builds the physical-scan closure for one block read: fault
// hook, source read, scan accounting. Demand reads and prefetches share
// it, so a prefetched block is charged exactly like a cold read.
func (s *Store) loadFunc(f *File, id BlockID, node NodeID, fault ReadFault) func() ([]byte, error) {
	return func() ([]byte, error) {
		if fault != nil {
			if err := fault(id, node); err != nil {
				s.failedReads.Add(1)
				return nil, err
			}
		}
		if f.source == nil {
			return nil, fmt.Errorf("dfs: file %q is metadata-only; block %d has no contents", id.File, id.Index)
		}
		data, err := f.source.ReadBlock(id.Index)
		if err != nil {
			s.failedReads.Add(1)
			return nil, err
		}
		s.blockReads.Add(1)
		s.bytesScanned.Add(int64(len(data)))
		return data, nil
	}
}

// HandleScanHint feeds one scheduler hint to the cache: the policy
// learns where the cursor stands — the hint's Cycle is set here, from
// the file — and, under the cursor policy on an unreplicated store, the
// hinted prefetch blocks start loading in the background on their
// primary holders, as far as their shards have free room. Prefetch is
// restricted to replicas == 1 because the readahead lands on
// Locations(b)[0]; with replication the engine's least-loaded replica
// choice may serve the block elsewhere and the speculative read would
// be charged without ever being consumed. Prefetch loads run through
// the same fault hook and scan counters as demand reads, but a block
// whose load fails is simply not cached (never retried, never an error
// to readers).
//
// The signature matches core.ScanHinter, so wire it directly:
// sched.SetScanHinter(store.HandleScanHint).
func (s *Store) HandleScanHint(h ScanHint) {
	s.mu.RLock()
	cache := s.cache
	fault := s.readFault
	f := s.files[h.File]
	s.mu.RUnlock()
	if cache == nil {
		return
	}
	if f != nil {
		h.Cycle = f.NumBlocks
	}
	if !cache.Hint(h) || s.replicas != 1 || f == nil {
		return
	}
	for _, id := range h.Prefetch {
		locs := s.Locations(id)
		if len(locs) == 0 {
			continue
		}
		node := locs[0]
		cache.PrefetchAsync(id, node, f.BlockLen(id.Index), s.loadFunc(f, id, node, fault))
	}
}

// Stats returns a snapshot of cumulative scan accounting.
func (s *Store) Stats() Stats {
	return Stats{
		BlockReads:   s.blockReads.Load(),
		BytesScanned: s.bytesScanned.Load(),
		FailedReads:  s.failedReads.Load(),
	}
}
