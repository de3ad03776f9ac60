package sim

import (
	"fmt"

	"s3sched/internal/dfs"
)

// Cache model: the simulator's analogue of dfs.BlockCache. The real
// engine caches block *contents* per node; the simulator only needs to
// know, at pricing time, whether a block would have been warm — so it
// keeps a bare dfs.MetaCache, the decision and accounting core every
// dfs.BlockCache wraps, and prices a warm block's scan at a
// configurable fraction of its disk cost. Warm blocks are memory
// reads: they skip the remote penalty (nothing crosses the network)
// and are not counted as physical scans, mirroring how the engine's
// cache hits bypass dfs.Store's scan counters.

// simCache is the executor's warm-set state.
type simCache struct {
	frac float64 // cached scan cost as a fraction of disk cost
	meta *dfs.MetaCache
	// prefetchSec accumulates the scan time of readahead issued since
	// the last priced round; the next round charges whatever part of it
	// the previous round's reduce stage could not hide.
	prefetchSec float64
	// prevRedSec is the last priced round's reduce duration — the
	// overlap window the readahead runs under.
	prevRedSec float64
}

// EnableCachePolicy turns on cache-aware pricing: every node gets
// bytesPerNode of warm-set budget under the named eviction policy
// (dfs.Policies), with warm reads costing frac of the disk scan (frac
// 0 = free memory reads, 1 = no benefit). The warm set is sharded by
// each block's *primary* holder, matching how the engine attributes
// reads on an unreplicated store. Wire the scheduler's hints to
// HandleScanHint to drive the cursor policy's pinning and modelled
// prefetch. Call before the run.
func (e *Executor) EnableCachePolicy(bytesPerNode int64, frac float64, policy string) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("sim: cached scan fraction %v outside [0,1]", frac)
	}
	meta, err := dfs.NewMetaCache(bytesPerNode, policy)
	if err != nil {
		return err
	}
	e.cache = &simCache{frac: frac, meta: meta}
	return nil
}

// HandleScanHint feeds one scheduler hint to the cache (a no-op with
// caching off): the policy learns where the cursor stands — the hint's
// Cycle is set here, from the file, as dfs.Store.HandleScanHint does —
// and, for the cursor policy on an unreplicated store, the hinted
// blocks are prefetched onto their primary holders as far as free room
// allows. Each issued prefetch is charged as a physical scan now, and
// its scan time accumulates into a readahead bill the next priced round
// pays net of the previous round's reduce overlap. The signature
// matches core.ScanHinter.
func (e *Executor) HandleScanHint(h dfs.ScanHint) {
	c := e.cache
	if c == nil {
		return
	}
	f, err := e.store.File(h.File)
	if err == nil {
		h.Cycle = f.NumBlocks
	}
	if !c.meta.Hint(h) || e.store.Replicas() != 1 || err != nil {
		return
	}
	// One node's readahead runs serially; different nodes prefetch in
	// parallel. The wall-clock bill is the slowest node's share.
	perNodeMB := make(map[dfs.NodeID]float64)
	for _, b := range h.Prefetch {
		locs := e.store.Locations(b)
		if len(locs) == 0 {
			continue
		}
		size := f.BlockLen(b.Index)
		if !c.meta.Prefetch(b, locs[0], size) {
			continue
		}
		e.stats.BlocksScanned++
		perNodeMB[locs[0]] += float64(size) / (1 << 20)
	}
	var slowest float64
	for _, mb := range perNodeMB {
		if sec := mb / e.model.ScanMBps; sec > slowest {
			slowest = sec
		}
	}
	c.prefetchSec += slowest
}

// CacheStats implements runtime.CacheStatsSource.
func (e *Executor) CacheStats() dfs.CacheStats {
	if e.cache == nil {
		return dfs.CacheStats{}
	}
	return e.cache.meta.Stats()
}

// cacheNode is the shard every scan and prefetch of block b lands on:
// its primary holder's, exactly where the engine's unreplicated demand
// read is attributed, or the pseudo-node's when it has no holder.
func (e *Executor) cacheNode(b dfs.BlockID) dfs.NodeID {
	if locs := e.store.Locations(b); len(locs) > 0 {
		return locs[0]
	}
	return -1
}

// cacheContains reports whether the block is warm without promoting it.
func (e *Executor) cacheContains(b dfs.BlockID) bool {
	return e.cache != nil && e.cache.meta.Contains(b, e.cacheNode(b))
}

// cacheAccess records one scan of block b of the given size and reports
// whether it was warm. Called only from price() on the driver's
// goroutine.
func (e *Executor) cacheAccess(b dfs.BlockID, size int64) bool {
	return e.cache != nil && e.cache.meta.Access(b, e.cacheNode(b), size)
}
