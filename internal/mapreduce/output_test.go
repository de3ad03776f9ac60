package mapreduce

import (
	"fmt"
	"strconv"
	"testing"

	"s3sched/internal/dfs"
)

func TestStoreResultRoundTrip(t *testing.T) {
	store := inputStore(t, textBlocks("a b a b b", "c a b c c"))
	res, err := RunJob(store, wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := StoreResult(store, "wc-out", 16, res)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks == 0 {
		t.Fatal("no blocks written")
	}
	// Read everything back through a KVLineMapper identity job.
	spec := JobSpec{
		Name: "readback",
		File: "wc-out",
		Mapper: KVLineMapper{Each: func(key, value string, emit Emit) error {
			emit(KV{Key: key, Value: value})
			return nil
		}},
	}
	back, err := RunJob(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back.Output) != fmt.Sprint(res.Output) {
		t.Errorf("round trip mismatch:\n  wrote %v\n  read  %v", res.Output, back.Output)
	}
}

func TestJobChaining(t *testing.T) {
	// Stage 1: wordcount. Stage 2: keep only words counted >= 3 —
	// a job scanning the first job's stored output.
	store := inputStore(t, textBlocks("a b a b b", "c a b c c"))
	res, err := RunJob(store, wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StoreResult(store, "counts", 32, res); err != nil {
		t.Fatal(err)
	}
	filter := JobSpec{
		Name: "frequent",
		File: "counts",
		Mapper: KVLineMapper{Each: func(key, value string, emit Emit) error {
			n, err := strconv.Atoi(value)
			if err != nil {
				return err
			}
			if n >= 3 {
				emit(KV{Key: key, Value: value})
			}
			return nil
		}},
	}
	out, err := RunJob(store, filter)
	if err != nil {
		t.Fatal(err)
	}
	// a=3, b=4, c=3 -> all three qualify; with threshold 4 only b.
	if len(out.Output) != 3 {
		t.Fatalf("frequent words = %v, want a,b,c", out.Output)
	}
}

func TestStoreResultValidation(t *testing.T) {
	store := testStore(t)
	if _, err := StoreResult(store, "x", 16, nil); err == nil {
		t.Error("nil result should fail")
	}
	if _, err := StoreResult(store, "x", 0, &Result{}); err == nil {
		t.Error("zero block size should fail")
	}
	bad := &Result{Output: []KV{{Key: "has\ttab", Value: "v"}}}
	if _, err := StoreResult(store, "x", 64, bad); err == nil {
		t.Error("tab in key should fail")
	}
	long := &Result{Output: []KV{{Key: "kkkkkkkkkkkkkkkkkkkk", Value: "v"}}}
	if _, err := StoreResult(store, "x", 8, long); err == nil {
		t.Error("record longer than block should fail")
	}
	// Empty result still materializes one block.
	f, err := StoreResult(store, "empty", 16, &Result{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks != 1 {
		t.Errorf("empty result blocks = %d, want 1", f.NumBlocks)
	}
}

func testStore(t *testing.T) *dfs.Store {
	t.Helper()
	return inputStore(t, textBlocks("x"))
}

func TestKVLineMapperErrors(t *testing.T) {
	m := KVLineMapper{}
	if err := m.Map(dfs.BlockID{}, []byte("a\tb\n"), func(KV) {}); err == nil {
		t.Error("nil Each should fail")
	}
	m = KVLineMapper{Each: func(string, string, Emit) error { return nil }}
	if err := m.Map(dfs.BlockID{}, []byte("no-tab-here\n"), func(KV) {}); err == nil {
		t.Error("malformed line should fail")
	}
}
