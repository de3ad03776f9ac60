package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func mkBlocks(n int, size int64) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(i + j)
		}
		blocks[i] = b
	}
	return blocks
}

func TestAddFileAndRead(t *testing.T) {
	s := MustStore(4, 1)
	blocks := mkBlocks(6, 64)
	f, err := s.AddFile("data", 64, blocks)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if f.NumBlocks != 6 || f.BlockSize != 64 || f.LastSize != 64 {
		t.Fatalf("file metadata = %+v", f)
	}
	for i := 0; i < 6; i++ {
		data, err := s.ReadBlock(BlockID{File: "data", Index: i})
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if !bytes.Equal(data, blocks[i]) {
			t.Fatalf("block %d contents mismatch", i)
		}
	}
	st := s.Stats()
	if st.BlockReads != 6 || st.BytesScanned != 6*64 {
		t.Fatalf("stats = %+v, want 6 reads / %d bytes", st, 6*64)
	}
}

func TestAddFileShortLastBlock(t *testing.T) {
	s := MustStore(2, 1)
	blocks := mkBlocks(3, 64)
	blocks[2] = blocks[2][:10]
	f, err := s.AddFile("data", 64, blocks)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if f.LastSize != 10 {
		t.Fatalf("LastSize = %d, want 10", f.LastSize)
	}
	if got := f.BlockLen(2); got != 10 {
		t.Fatalf("BlockLen(2) = %d, want 10", got)
	}
	if got := f.BlockLen(0); got != 64 {
		t.Fatalf("BlockLen(0) = %d, want 64", got)
	}
}

func TestAddFileRejectsBadBlocks(t *testing.T) {
	s := MustStore(2, 1)
	if _, err := s.AddFile("empty", 64, nil); err == nil {
		t.Error("AddFile with no blocks should fail")
	}
	bad := mkBlocks(3, 64)
	bad[1] = bad[1][:32] // non-final short block
	if _, err := s.AddFile("ragged", 64, bad); err == nil {
		t.Error("AddFile with short middle block should fail")
	}
	over := mkBlocks(2, 64)
	over[1] = make([]byte, 100)
	if _, err := s.AddFile("over", 64, over); err == nil {
		t.Error("AddFile with oversized last block should fail")
	}
}

func TestDuplicateFileRejected(t *testing.T) {
	s := MustStore(2, 1)
	if _, err := s.AddMetaFile("f", 4, 64); err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	if _, err := s.AddMetaFile("f", 4, 64); err == nil {
		t.Error("duplicate file name should be rejected")
	}
}

func TestMetaFileHasNoContents(t *testing.T) {
	s := MustStore(2, 1)
	if _, err := s.AddMetaFile("meta", 8, 1<<20); err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	if _, err := s.ReadBlock(BlockID{File: "meta", Index: 0}); err == nil {
		t.Error("reading a metadata-only block should fail")
	}
	if s.Stats().BlockReads != 0 {
		t.Error("failed read must not be counted as a scan")
	}
}

func TestGeneratedFile(t *testing.T) {
	s := MustStore(3, 1)
	_, err := s.AddGeneratedFile("gen", 5, 16, func(i int) ([]byte, error) {
		return []byte(fmt.Sprintf("block-%08d....", i))[:16], nil
	})
	if err != nil {
		t.Fatalf("AddGeneratedFile: %v", err)
	}
	d0, err := s.ReadBlock(BlockID{File: "gen", Index: 0})
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	d0again, _ := s.ReadBlock(BlockID{File: "gen", Index: 0})
	if !bytes.Equal(d0, d0again) {
		t.Error("generated blocks must be deterministic")
	}
	if _, err := s.ReadBlock(BlockID{File: "gen", Index: 9}); err == nil {
		t.Error("out-of-range generated block should fail")
	}
}

func TestReadUnknownFile(t *testing.T) {
	s := MustStore(2, 1)
	if _, err := s.ReadBlock(BlockID{File: "nope", Index: 0}); err == nil {
		t.Error("reading unknown file should fail")
	}
	if _, err := s.File("nope"); err == nil {
		t.Error("File on unknown name should fail")
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	s := MustStore(4, 1)
	if _, err := s.AddMetaFile("f", 10, 64); err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	for i := 0; i < 10; i++ {
		locs := s.Locations(BlockID{File: "f", Index: i})
		if len(locs) != 1 {
			t.Fatalf("block %d has %d replicas, want 1", i, len(locs))
		}
		if want := NodeID(i % 4); locs[0] != want {
			t.Fatalf("block %d on node %d, want %d", i, locs[0], want)
		}
	}
}

func TestPlacementReplication(t *testing.T) {
	s := MustStore(5, 3)
	if _, err := s.AddMetaFile("f", 7, 64); err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	for i := 0; i < 7; i++ {
		id := BlockID{File: "f", Index: i}
		locs := s.Locations(id)
		if len(locs) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(locs))
		}
		seen := map[NodeID]bool{}
		for _, n := range locs {
			if seen[n] {
				t.Fatalf("block %d replicated twice on node %d", i, n)
			}
			seen[n] = true
		}
	}
	if locs := s.Locations(BlockID{File: "f", Index: 0}); !reflect.DeepEqual(locs, []NodeID{0, 1, 2}) {
		t.Errorf("block 0 on nodes %v, want 0, 1, 2", locs)
	}
}

func TestStoreConstructorValidation(t *testing.T) {
	for _, tc := range []struct{ nodes, reps int }{{0, 1}, {-1, 1}, {3, 0}, {3, 4}} {
		if _, err := NewStore(tc.nodes, tc.reps); err == nil {
			t.Errorf("NewStore(%d,%d) should return an error", tc.nodes, tc.reps)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustStore(%d,%d) should panic", tc.nodes, tc.reps)
				}
			}()
			MustStore(tc.nodes, tc.reps)
		}()
	}
	if s, err := NewStore(3, 2); err != nil || s == nil {
		t.Errorf("NewStore(3,2) = %v, %v; want a store", s, err)
	}
}
