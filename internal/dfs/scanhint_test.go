package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// hintStore builds an n-block single-file store with numbered block
// contents, so tests can assert byte-identity after cache operations.
func hintStore(t *testing.T, nodes, replicas, numBlocks int, blockSize int64) (*Store, *File) {
	t.Helper()
	s := MustStore(nodes, replicas)
	blocks := make([][]byte, numBlocks)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte('a' + i%26)}, int(blockSize))
	}
	f, err := s.AddFile("input", blockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

// waitCache polls the store's cache counters until pred holds or the
// deadline passes, returning the final snapshot either way — the
// pattern for asserting on asynchronous prefetch results.
func waitCache(s *Store, pred func(CacheStats) bool) CacheStats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := s.CacheStats()
		if pred(cs) || time.Now().After(deadline) {
			return cs
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range Policies() {
		if !ValidPolicy(name) {
			t.Errorf("Policies() lists %q but ValidPolicy rejects it", name)
		}
		m, err := NewMetaCache(64, name)
		if err != nil {
			t.Fatalf("NewMetaCache(%q): %v", name, err)
		}
		// A pin hint pins under cursor; lru drops it, so a newcomer of
		// another file evicts the read block as plain LRU does.
		id, other := BlockID{File: "f", Index: 0}, BlockID{File: "g", Index: 0}
		cursor := name == PolicyCursor
		m.Access(id, 0, 64)
		if took := m.Hint(ScanHint{File: "f", Pin: [][]BlockID{{id}}, Cycle: 1}); took != cursor {
			t.Errorf("%s: Hint took the hint = %v", name, took)
		}
		if pinned := m.Stats().PinnedBytes == 64; pinned != cursor {
			t.Errorf("%s: %v pinned = %v after pin hint", name, id, pinned)
		}
		m.Access(other, 0, 64)
		if m.Contains(id, 0) != cursor || m.Contains(other, 0) == cursor {
			t.Errorf("%s: after a newcomer, %v resident = %v, %v resident = %v", name, id, m.Contains(id, 0), other, m.Contains(other, 0))
		}
	}
	for _, bad := range []string{"", "clock", "LRU", "2q"} {
		if ValidPolicy(bad) {
			t.Errorf("ValidPolicy(%q) = true", bad)
		}
		if _, err := NewMetaCache(1<<20, bad); err == nil {
			t.Errorf("NewMetaCache(1MB, %q) did not fail", bad)
		}
	}
	if c, err := NewBlockCachePolicy(1<<20, PolicyCursor); err != nil || !c.Hint(ScanHint{File: "f"}) {
		t.Fatalf("NewBlockCachePolicy: cache %v, err %v", c, err)
	}
}

func TestHandleScanHintPrefetchesNextSegment(t *testing.T) {
	const blockSize = 512
	s, f := hintStore(t, 2, 1, 8, blockSize)
	if _, err := s.EnableCachePolicy(8*blockSize, PolicyCursor); err != nil {
		t.Fatal(err)
	}
	ids := f.Blocks()
	s.HandleScanHint(ScanHint{
		File:     f.Name,
		Pin:      [][]BlockID{ids[2:4]},
		Prefetch: ids[2:4],
	})
	cs := waitCache(s, func(cs CacheStats) bool { return cs.Bytes == 2*blockSize })
	if cs.Prefetches != 2 || cs.PrefetchFailed != 0 || cs.Bytes != 2*blockSize {
		t.Fatalf("prefetch did not warm the hinted segment: %+v", cs)
	}
	if cs.PinnedBytes != 2*blockSize {
		t.Fatalf("prefetched blocks not pinned: %+v", cs)
	}
	// The warmed blocks now hit without a physical scan, byte-identical
	// to the source.
	physical := s.Stats().BlockReads
	for _, id := range ids[2:4] {
		data, err := s.ReadBlockAt(id, s.Locations(id)[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != blockSize || data[0] != byte('a'+id.Index) {
			t.Fatalf("block %v corrupted by prefetch path", id)
		}
	}
	if got := s.Stats().BlockReads; got != physical {
		t.Fatalf("warm reads hit the source: %d physical scans, want %d", got, physical)
	}
	if hits := s.CacheStats().Hits; hits != 2 {
		t.Fatalf("warm reads recorded %d hits, want 2", hits)
	}
	// A repeated hint declines to re-prefetch resident blocks.
	s.HandleScanHint(ScanHint{File: f.Name, Prefetch: ids[2:4]})
	if cs := s.CacheStats(); cs.Prefetches != 2 {
		t.Fatalf("resident blocks re-prefetched: %+v", cs)
	}
}

// cycleScan drives s's one-node cache the way S3 does for file: per
// round the cursor's hint — its segment and the next pinned, the next
// read ahead — then the cursor segment's reads. It returns the physical
// reads, readahead included, of each of cycles passes.
func cycleScan(t *testing.T, s *Store, file string, segment, cycles int) []int64 {
	t.Helper()
	f, err := s.File(file)
	if err != nil {
		t.Fatal(err)
	}
	seg := func(k int) []BlockID {
		var out []BlockID
		for i := k * segment; i < (k+1)*segment; i++ {
			out = append(out, BlockID{File: file, Index: i % f.NumBlocks})
		}
		return out
	}
	k := f.NumBlocks / segment
	out := make([]int64, cycles)
	for c := range out {
		before := s.Stats().BlockReads
		for r := 0; r < k; r++ {
			s.HandleScanHint(ScanHint{File: file, Pin: [][]BlockID{seg(r), seg(r + 1)}, Prefetch: seg(r + 1)})
			settleCache(s.Cache())
			for _, id := range seg(r) {
				if _, err := s.ReadBlockAt(id, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		out[c] = s.Stats().BlockReads - before
	}
	return out
}

// One shard, a hinted circular scan of N blocks, a budget of C < N: from
// the second cycle on, the cursor policy reads N−C blocks a cycle — it
// keeps C and serves the rest uncached, the least any policy can read —
// and never evicts; LRU reads all N.
func TestCursorScanReadsNMinusC(t *testing.T) {
	const n, c, blockSize = 12, 5, 256
	for policy, want := range map[string]int64{PolicyCursor: n - c, PolicyLRU: n} {
		s, _ := hintStore(t, 1, 1, n, blockSize)
		if _, err := s.EnableCachePolicy(c*blockSize, policy); err != nil {
			t.Fatal(err)
		}
		reads := cycleScan(t, s, "input", 2, 4)
		for cycle, got := range reads[1:] {
			if got != want {
				t.Errorf("%s: cycle %d read %d blocks (cycles %v), want %d", policy, cycle+2, got, reads, want)
			}
		}
		if cs := s.CacheStats(); policy == PolicyCursor && cs.Evictions != 0 {
			t.Errorf("cursor: %d evictions, want none: %+v", cs.Evictions, cs)
		}
	}
}

// A file whose queue drained keeps its last hint — and its pins — on
// the workers (DESIGN.md §9). Its blocks give their slots up to a live
// scan once that scan has advanced a whole cycle of the drained file.
func TestDrainedFileYieldsToLiveScan(t *testing.T) {
	const n, c, blockSize = 12, 5, 256
	s, _ := hintStore(t, 1, 1, n, blockSize)
	old, err := s.AddFile("old", blockSize, [][]byte{make([]byte, blockSize), make([]byte, blockSize), make([]byte, blockSize), make([]byte, blockSize)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCachePolicy(c*blockSize, PolicyCursor); err != nil {
		t.Fatal(err)
	}
	// The old file's last round: its window read ahead and never scanned.
	window := old.Blocks()
	s.HandleScanHint(ScanHint{File: old.Name, Pin: [][]BlockID{window[:2], window[2:]}, Prefetch: window})
	settleCache(s.Cache())
	if cs := s.CacheStats(); cs.PinnedBytes != 4*blockSize {
		t.Fatalf("the drained window is not pinned: %+v", cs)
	}
	reads := cycleScan(t, s, "input", 2, 3)
	for _, id := range window {
		if cached(s.Cache(), id, 0) {
			t.Errorf("drained %v still cached after %d live cycles", id, len(reads))
		}
	}
	if reads[2] != n-c {
		t.Errorf("live scan read %v blocks a cycle, want %d once the drained file is gone", reads, n-c)
	}
}

func TestHandleScanHintGuards(t *testing.T) {
	const blockSize = 512
	t.Run("no cache", func(t *testing.T) {
		s, f := hintStore(t, 2, 1, 4, blockSize)
		s.HandleScanHint(ScanHint{File: f.Name, Prefetch: f.Blocks()}) // must not panic
		if cs := s.CacheStats(); cs != (CacheStats{}) {
			t.Fatalf("uncached store reported cache stats %+v", cs)
		}
	})
	t.Run("replicated store skips prefetch", func(t *testing.T) {
		s, f := hintStore(t, 2, 2, 4, blockSize)
		if _, err := s.EnableCachePolicy(4*blockSize, PolicyCursor); err != nil {
			t.Fatal(err)
		}
		s.HandleScanHint(ScanHint{File: f.Name, Prefetch: f.Blocks()})
		if cs := s.CacheStats(); cs.Prefetches != 0 {
			t.Fatalf("prefetch issued on a replicated store: %+v", cs)
		}
	})
	t.Run("non-cursor policy skips prefetch", func(t *testing.T) {
		s, f := hintStore(t, 2, 1, 4, blockSize)
		if _, err := s.EnableCachePolicy(4*blockSize, PolicyLRU); err != nil {
			t.Fatal(err)
		}
		s.HandleScanHint(ScanHint{File: f.Name, Prefetch: f.Blocks()})
		if cs := s.CacheStats(); cs.Prefetches != 0 {
			t.Fatalf("prefetch issued under lru: %+v", cs)
		}
	})
	t.Run("unknown file", func(t *testing.T) {
		s, f := hintStore(t, 2, 1, 4, blockSize)
		if _, err := s.EnableCachePolicy(4*blockSize, PolicyCursor); err != nil {
			t.Fatal(err)
		}
		s.HandleScanHint(ScanHint{File: "nope", Prefetch: f.Blocks()})
		if cs := s.CacheStats(); cs.Prefetches != 0 {
			t.Fatalf("prefetch issued for an unknown file: %+v", cs)
		}
	})
}

func TestHandleScanHintFaultedPrefetchNeverCached(t *testing.T) {
	const blockSize = 512
	s, f := hintStore(t, 1, 1, 4, blockSize)
	if _, err := s.EnableCachePolicy(4*blockSize, PolicyCursor); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	s.SetReadFault(func(BlockID, NodeID) error { return boom })
	id := f.Blocks()[0]
	s.HandleScanHint(ScanHint{File: f.Name, Prefetch: []BlockID{id}})
	cs := waitCache(s, func(cs CacheStats) bool { return cs.PrefetchFailed == 1 })
	if cs.Prefetches != 1 || cs.PrefetchFailed != 1 || cs.Bytes != 0 {
		t.Fatalf("faulted prefetch was cached or miscounted: %+v", cs)
	}
	if cached(s.Cache(), id, s.Locations(id)[0]) {
		t.Fatal("faulted prefetch left the block resident")
	}
	// The next demand read retries cold through the normal fault path
	// and, once the fault clears, caches normally.
	if _, err := s.ReadBlockAt(id, s.Locations(id)[0]); !errors.Is(err, boom) {
		t.Fatalf("demand read after faulted prefetch: err %v, want %v", err, boom)
	}
	s.SetReadFault(nil)
	if _, err := s.ReadBlockAt(id, s.Locations(id)[0]); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Bytes != blockSize {
		t.Fatalf("recovered read not cached: %+v", cs)
	}
}

func TestMetaCacheMirrorsBlockCacheSemantics(t *testing.T) {
	const blockSize = int64(512)
	if _, err := NewMetaCache(0, PolicyLRU); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewMetaCache(blockSize, "clock"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	m, err := NewMetaCache(2*blockSize, PolicyCursor)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]BlockID, 4)
	for i := range ids {
		ids[i] = BlockID{File: "f", Index: i}
	}
	// A hint delivered before any shard exists must still apply to
	// shards created later (the lastHints replay).
	m.Hint(ScanHint{File: "f", Pin: [][]BlockID{ids[0:2]}, Cycle: len(ids)})
	if m.Access(ids[0], 0, blockSize) {
		t.Fatal("cold access hit")
	}
	if !m.Access(ids[0], 0, blockSize) {
		t.Fatal("warm access missed")
	}
	if !m.Prefetch(ids[1], 0, blockSize) {
		t.Fatal("prefetch of absent block declined")
	}
	if m.Prefetch(ids[1], 0, blockSize) {
		t.Fatal("resident block re-prefetched")
	}
	if m.Prefetch(ids[2], 0, 3*blockSize) {
		t.Fatal("over-budget block prefetched")
	}
	// The two resident blocks fill the budget: readahead never evicts,
	// so a further prefetch declines.
	if m.Prefetch(ids[2], 0, blockSize) {
		t.Fatal("prefetch evicted to make room")
	}
	if !m.Contains(ids[1], 0) || m.Contains(ids[1], 1) {
		t.Fatal("Contains wrong about residency")
	}
	st := m.Stats()
	// The read unpinned ids[0]; the prefetched ids[1] stays pinned.
	want := CacheStats{Hits: 1, Misses: 1, Prefetches: 1, Bytes: 2 * blockSize, PinnedBytes: blockSize}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestStoreShapeAccessors(t *testing.T) {
	s, f := hintStore(t, 3, 2, 4, 512)
	if s.Replicas() != 2 {
		t.Fatalf("Replicas = %d", s.Replicas())
	}
	if got := fmt.Sprint(f.Blocks()[1]); got != "input#1" {
		t.Fatalf("BlockID.String() = %q", got)
	}
	if size := int64(f.NumBlocks) * f.BlockSize; size != 4*512 {
		t.Fatalf("size = %d", size)
	}
}

// BenchmarkCacheShardScan times one read of a hinted scan that misses
// and evicts: a cursor cache holds the first C blocks of a long file,
// and the scan reads on past them, each read a fresh hint and a miss
// whose victim search walks all C residents before it discards the
// newcomer, the block the cursor needs last. The cycle exceeds any b.N,
// so the residents never go stale and every read walks them all.
func BenchmarkCacheShardScan(b *testing.B) {
	const blockSize, cycle = 1 << 10, 1 << 30
	for _, c := range []int{64, 4096} {
		b.Run(fmt.Sprintf("residents=%d", c), func(b *testing.B) {
			m, err := NewMetaCache(int64(c)*blockSize, PolicyCursor)
			if err != nil {
				b.Fatal(err)
			}
			scan := func(i int) {
				id, next := BlockID{File: "f", Index: i}, BlockID{File: "f", Index: i + 1}
				m.Hint(ScanHint{File: "f", Pin: [][]BlockID{{id, next}}, Cycle: cycle})
				m.Access(id, 0, blockSize)
			}
			for i := 0; i < c; i++ {
				scan(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan(c + i)
			}
			b.StopTimer()
			if st := m.Stats(); st.Misses != int64(c+b.N) || st.Bytes != int64(c)*blockSize {
				b.Fatalf("not a miss a read over a full shard: %+v", st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c), "ns/resident")
		})
	}
}
