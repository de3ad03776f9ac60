package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// cacheStore builds a store over one generated file whose gen calls are
// counted, so tests can assert how many physical reads happened.
func cacheStore(t *testing.T, nodes, blocks int, blockSize int64) (*Store, *atomic.Int64) {
	t.Helper()
	s := MustStore(nodes, 1)
	var gens atomic.Int64
	_, err := s.AddGeneratedFile("f", blocks, blockSize, func(i int) ([]byte, error) {
		gens.Add(1)
		b := make([]byte, blockSize)
		for j := range b {
			b[j] = byte(i)
		}
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, &gens
}

func TestCacheHitSkipsSource(t *testing.T) {
	s, gens := cacheStore(t, 2, 4, 64)
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	id := BlockID{File: "f", Index: 1}
	a, err := s.ReadBlockAt(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadBlockAt(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cached read returned different bytes")
	}
	if got := gens.Load(); got != 1 {
		t.Fatalf("source read %d times, want 1", got)
	}
	cs := s.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", cs)
	}
	// Hits are not physical scans.
	if st := s.Stats(); st.BlockReads != 1 || st.BytesScanned != 64 {
		t.Fatalf("store stats = %+v, want 1 read / 64 bytes", st)
	}
}

func TestCachePerNodeShards(t *testing.T) {
	s, gens := cacheStore(t, 4, 4, 64)
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	id := BlockID{File: "f", Index: 0}
	// The same block read on two nodes is two independent cold reads.
	if _, err := s.ReadBlockAt(id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlockAt(id, 1); err != nil {
		t.Fatal(err)
	}
	if got := gens.Load(); got != 2 {
		t.Fatalf("source read %d times, want 2 (one per node shard)", got)
	}
	if !cached(s.Cache(), id, 0) || !cached(s.Cache(), id, 1) {
		t.Fatal("block missing from a node shard")
	}
	if cached(s.Cache(), id, 2) {
		t.Fatal("block cached on a node that never read it")
	}
}

// Satellite: the -race single-flight test. N goroutines read the same
// cold block; exactly one must reach the source, and every goroutine
// must see identical bytes.
func TestCacheSingleFlight(t *testing.T) {
	s, gens := cacheStore(t, 2, 4, 256)
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	const readers = 32
	id := BlockID{File: "f", Index: 2}
	want, err := s.ReadBlockAt(id, 1) // warm a reference copy on node 1
	if err != nil {
		t.Fatal(err)
	}
	gens.Store(0)

	var wg sync.WaitGroup
	results := make([][]byte, readers)
	errs := make([]error, readers)
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.ReadBlockAt(id, 0) // node 0 shard is cold
		}(i)
	}
	close(start)
	wg.Wait()

	if got := gens.Load(); got != 1 {
		t.Fatalf("source read %d times, want 1 (single-flight)", got)
	}
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("reader %d got torn/garbled bytes", i)
		}
	}
	cs := s.Cache().Stats()
	if cs.Hits+cs.Misses != readers+1 {
		t.Fatalf("hits+misses = %d, want %d (one per read)", cs.Hits+cs.Misses, readers+1)
	}
}

// TestCacheLRUEviction: plain LRU is an lru cache, hinted or not (it
// drops hints; under cursor this hint would keep block 1), and a
// cursor cache that gets no hints.
func TestCacheLRUEviction(t *testing.T) {
	for _, tc := range []struct {
		name, policy string
		hint         bool
	}{
		{"lru", PolicyLRU, false},
		{"lru given a pin hint", PolicyLRU, true},
		{"cursor without hints", PolicyCursor, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := cacheStore(t, 1, 4, 100)
			c, err := s.EnableCachePolicy(250, tc.policy) // room for two 100-byte blocks
			if err != nil {
				t.Fatal(err)
			}
			read := func(i int) {
				t.Helper()
				if _, err := s.ReadBlockAt(BlockID{File: "f", Index: i}, 0); err != nil {
					t.Fatal(err)
				}
			}
			read(0)
			read(1)
			read(0) // promote block 0: block 1 is now LRU
			if tc.hint {
				s.HandleScanHint(ScanHint{File: "f", Pin: [][]BlockID{{{File: "f", Index: 1}}}})
			}
			read(2) // over budget: evicts block 1
			if cached(c, BlockID{File: "f", Index: 1}, 0) {
				t.Fatal("LRU block 1 still cached after eviction")
			}
			if !cached(c, BlockID{File: "f", Index: 0}, 0) || !cached(c, BlockID{File: "f", Index: 2}, 0) {
				t.Fatal("recently used blocks were evicted")
			}
			cs := c.Stats()
			if cs.Evictions != 1 || cs.Bytes != 200 || cs.PinnedBytes != 0 {
				t.Fatalf("stats = %+v, want 1 eviction / 200 bytes / none pinned", cs)
			}
		})
	}
}

func TestCacheOversizedBlockNotCached(t *testing.T) {
	s, gens := cacheStore(t, 1, 2, 512)
	if _, err := s.EnableCachePolicy(100, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	id := BlockID{File: "f", Index: 0}
	for i := 0; i < 2; i++ {
		if _, err := s.ReadBlockAt(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := gens.Load(); got != 2 {
		t.Fatalf("source read %d times, want 2 (block exceeds budget, never cached)", got)
	}
	if cs := s.CacheStats(); cs.Bytes != 0 {
		t.Fatalf("cached %d bytes, want 0", cs.Bytes)
	}
}

func TestCacheFaultedReadNeverCached(t *testing.T) {
	s, gens := cacheStore(t, 1, 2, 64)
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	var attempts atomic.Int64
	s.SetReadFault(func(id BlockID, node NodeID) error {
		if attempts.Add(1) == 1 {
			return injected
		}
		return nil
	})
	id := BlockID{File: "f", Index: 0}
	if _, err := s.ReadBlockAt(id, 0); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if cached(s.Cache(), id, 0) {
		t.Fatal("failed read was cached")
	}
	if st := s.Stats(); st.FailedReads != 1 || st.BlockReads != 0 {
		t.Fatalf("stats = %+v, want 1 failed / 0 reads", st)
	}
	// The retry takes the cold path again (fault hook fires on misses).
	if _, err := s.ReadBlockAt(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("fault hook fired %d times, want 2", got)
	}
	if got := gens.Load(); got != 1 {
		t.Fatalf("source read %d times, want 1", got)
	}
	// Now cached: the hook must NOT fire on the hit.
	if _, err := s.ReadBlockAt(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("fault hook fired on a cache hit (%d calls)", got)
	}
}

func TestCacheMetadataOnlyFileStaysUnreadable(t *testing.T) {
	s := MustStore(1, 1)
	if _, err := s.AddMetaFile("meta", 2, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlock(BlockID{File: "meta", Index: 0}); err == nil {
		t.Fatal("metadata-only read succeeded through the cache")
	}
	if cs := s.CacheStats(); cs.Bytes != 0 {
		t.Fatalf("cached %d bytes of a metadata-only file", cs.Bytes)
	}
}

// Every counter of Stats and CacheStats reads zero on a fresh store and
// moves when its event happens: the scan counters, the failed-read
// counter fed by SetReadFault, and every cache counter including the
// prefetch pair, with the Bytes and PinnedBytes gauges live too. A newly
// added field the setup does not exercise fails here, which keeps the
// setup complete.
func TestEveryStatsCounterMoves(t *testing.T) {
	s, _ := cacheStore(t, 1, 4, 64)
	c, err := s.EnableCachePolicy(3*64, PolicyCursor)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats() != (Stats{}) || s.CacheStats() != (CacheStats{}) {
		t.Fatalf("fresh store counts %+v, cache %+v, want zeros", s.Stats(), s.CacheStats())
	}
	boom := errors.New("boom")
	var fail atomic.Bool
	fail.Store(true)
	s.SetReadFault(func(id BlockID, node NodeID) error {
		if fail.CompareAndSwap(true, false) {
			return boom
		}
		return nil
	})
	id := BlockID{File: "f", Index: 0}
	if _, err := s.ReadBlock(id); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.ReadBlock(id); err != nil {
			t.Fatal(err)
		}
	}
	// Evictions: read past the 3-block budget.
	for i := 1; i < 4; i++ {
		if _, err := s.ReadBlock(BlockID{File: "f", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Prefetches: one that fails, one that succeeds. The follow-up Read
	// waits on the in-flight prefetch, so both outcomes are settled (and
	// their counters visible) once it returns.
	pid := BlockID{File: "f", Index: 0}
	if !c.PrefetchAsync(pid, 1, 64, func() ([]byte, error) { return nil, boom }) {
		t.Fatal("failing prefetch not issued")
	}
	if _, err := s.ReadBlockAt(pid, 1); err != nil {
		t.Fatal(err)
	}
	if !c.PrefetchAsync(BlockID{File: "f", Index: 1}, 1, 64, func() ([]byte, error) { return make([]byte, 64), nil }) {
		t.Fatal("prefetch not issued")
	}
	if _, err := s.ReadBlockAt(BlockID{File: "f", Index: 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Pin something so the PinnedBytes gauge is live too.
	s.HandleScanHint(ScanHint{File: "f", Pin: [][]BlockID{{{File: "f", Index: 1}}}})

	st := reflect.ValueOf(s.Stats())
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Int() == 0 {
			t.Fatalf("setup left store counter %s zero", st.Type().Field(i).Name)
		}
	}
	cs := reflect.ValueOf(s.CacheStats())
	for i := 0; i < cs.NumField(); i++ {
		if cs.Field(i).Int() == 0 {
			t.Fatalf("setup left cache field %s zero — extend the setup for new counters", cs.Type().Field(i).Name)
		}
	}
}

func TestEnableCacheRejectsBadBudget(t *testing.T) {
	s := MustStore(1, 1)
	for _, budget := range []int64{0, -5} {
		if _, err := s.EnableCachePolicy(budget, PolicyLRU); err == nil {
			t.Fatalf("EnableCachePolicy(%d) succeeded, want error", budget)
		}
	}
	if _, err := NewBlockCachePolicy(0, PolicyLRU); err == nil {
		t.Fatal("NewBlockCachePolicy(0, lru) succeeded, want error")
	}
	c, err := s.EnableCachePolicy(4096, PolicyLRU)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache() != c {
		t.Fatal("Cache() is not the cache EnableCachePolicy installed")
	}
}

func TestCacheSingleFlightErrorPropagates(t *testing.T) {
	// All coalesced waiters of a failing load must see the error, and
	// nothing may be cached.
	s := MustStore(1, 1)
	boom := errors.New("disk gone")
	release := make(chan struct{})
	var gens atomic.Int64
	if _, err := s.AddGeneratedFile("f", 1, 64, func(i int) ([]byte, error) {
		gens.Add(1)
		<-release
		return nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCachePolicy(1<<20, PolicyLRU); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.ReadBlock(BlockID{File: "f", Index: 0})
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("reader %d: err = %v, want boom", i, err)
		}
	}
	if got := gens.Load(); got < 1 || got > readers {
		t.Fatalf("gen calls = %d, want within [1,%d]", got, readers)
	}
	if cs := s.CacheStats(); cs.Bytes != 0 {
		t.Fatal("failed load was cached")
	}
	if st := s.Stats(); int(st.FailedReads) != int(gens.Load()) {
		t.Fatalf("failed reads = %d, want %d", st.FailedReads, gens.Load())
	}
}

func TestCacheStatsHitRatio(t *testing.T) {
	if r := (CacheStats{}).HitRatio(); r != 0 {
		t.Fatalf("empty hit ratio = %v, want 0", r)
	}
	if r := (CacheStats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", r)
	}
}

func ExampleStore_EnableCachePolicy() {
	s := MustStore(2, 1)
	blocks := [][]byte{[]byte("aaaa"), []byte("bbbb")}
	if _, err := s.AddFile("f", 4, blocks); err != nil {
		panic(err)
	}
	if _, err := s.EnableCachePolicy(1<<10, PolicyLRU); err != nil {
		panic(err)
	}
	id := BlockID{File: "f", Index: 0}
	s.ReadBlockAt(id, 0)
	s.ReadBlockAt(id, 0)
	cs := s.CacheStats()
	fmt.Printf("hits=%d misses=%d physical=%d\n", cs.Hits, cs.Misses, s.Stats().BlockReads)
	// Output: hits=1 misses=1 physical=1
}
