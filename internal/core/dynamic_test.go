package core

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

func dynFile(t *testing.T, blocks int) *dfs.File {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("input", blocks, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDynamicMatchesIdealSegmentsWhenHomogeneous(t *testing.T) {
	f := dynFile(t, 12)
	d, err := NewDynamic(f, ids(0, 1, 2, 3), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		r, ok := d.NextRound(0)
		if !ok {
			break
		}
		sizes = append(sizes, len(r.Blocks))
		if len(r.Nodes) != 4 {
			t.Fatalf("round nodes = %v, want all 4", r.Nodes)
		}
		d.RoundDone(r, 0)
	}
	// 12 blocks / 4 slots -> three rounds of 4 blocks: identical to
	// the fixed segment plan the paper's ideal case uses.
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 4 {
		t.Fatalf("round sizes = %v, want [4 4 4]", sizes)
	}
}

func TestDynamicShrinksWithSlotChecker(t *testing.T) {
	f := dynFile(t, 8)
	sc := NewSlotChecker(0.5, 1.0, nil)
	sc.Observe(0, 1, 0)
	sc.Observe(1, 1, 0)
	sc.Observe(2, 0.1, 0) // straggler
	sc.Observe(3, 1, 0)
	d, err := NewDynamic(f, ids(0, 1, 2, 3), 1, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, ok := d.NextRound(0)
	if !ok {
		t.Fatal("expected a round")
	}
	// Segment shrinks to 3 blocks on the 3 healthy nodes.
	if len(r.Blocks) != 3 || len(r.Nodes) != 3 {
		t.Fatalf("round = %d blocks on %v, want 3 on 3 healthy nodes", len(r.Blocks), r.Nodes)
	}
	for _, n := range r.Nodes {
		if n == 2 {
			t.Fatal("straggler included in round")
		}
	}
	d.RoundDone(r, 1)
	// Straggler recovers: segment extends back to 4.
	sc.Observe(2, 1.0, 1)
	r2, _ := d.NextRound(1)
	if len(r2.Blocks) != 4 {
		t.Fatalf("after recovery round = %d blocks, want 4", len(r2.Blocks))
	}
	d.RoundDone(r2, 2)
}

func TestDynamicNeverScansTwice(t *testing.T) {
	// Job 2 joins mid-stream; rounds must clip at its completion
	// boundary so it processes each block exactly once.
	f := dynFile(t, 10)
	d, err := NewDynamic(f, ids(0, 1, 2, 3), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	// Run one round (blocks 0-3).
	r, _ := d.NextRound(0)
	d.RoundDone(r, 0)
	// Job 2 joins at block 4.
	if err := d.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	blockCount := map[scheduler.JobID]map[int]int{1: {}, 2: {}}
	for _, b := range r.Blocks {
		blockCount[1][b.Index]++
	}
	for {
		r, ok := d.NextRound(0)
		if !ok {
			break
		}
		for _, j := range r.Jobs {
			for _, b := range r.Blocks {
				blockCount[j.ID][b.Index]++
			}
		}
		d.RoundDone(r, 0)
	}
	for id, counts := range blockCount {
		if len(counts) != 10 {
			t.Errorf("job %d scanned %d distinct blocks, want 10", id, len(counts))
		}
		for blk, c := range counts {
			if c != 1 {
				t.Errorf("job %d scanned block %d %d times", id, blk, c)
			}
		}
	}
}

func TestDynamicMidRoundSubmit(t *testing.T) {
	f := dynFile(t, 8)
	d, err := NewDynamic(f, ids(0, 1, 2, 3), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := d.NextRound(0) // blocks 0-3 in flight
	if err := d.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	done := d.RoundDone(r, 2)
	if len(done) != 0 {
		t.Fatalf("done = %v", done)
	}
	// Job 2 must not have been credited for blocks 0-3.
	total2 := 0
	for {
		r, ok := d.NextRound(0)
		if !ok {
			break
		}
		for _, j := range r.Jobs {
			if j.ID == 2 {
				total2 += len(r.Blocks)
			}
		}
		d.RoundDone(r, 0)
	}
	if total2 != 8 {
		t.Fatalf("job 2 scanned %d blocks, want all 8", total2)
	}
	if d.PendingJobs() != 0 {
		t.Fatalf("pending = %d", d.PendingJobs())
	}
}

func TestDynamicErrors(t *testing.T) {
	f := dynFile(t, 4)
	if _, err := NewDynamic(nil, ids(0), 1, nil, nil); err == nil {
		t.Error("nil file should fail")
	}
	if _, err := NewDynamic(f, nil, 1, nil, nil); err == nil {
		t.Error("no nodes should fail")
	}
	if _, err := NewDynamic(f, ids(0), 0, nil, nil); err == nil {
		t.Error("zero slots should fail")
	}
	d, err := NewDynamic(f, ids(0, 1), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err == nil {
		t.Error("duplicate should fail")
	}
	bad := job(2)
	bad.File = "other"
	if err := d.Submit(bad, 0); err == nil {
		t.Error("wrong file should fail")
	}
	if d.Name() != "s3-dynamic" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDynamicProtocolPanics(t *testing.T) {
	f := dynFile(t, 4)
	d, err := NewDynamic(f, ids(0, 1), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := d.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NextRound should panic")
			}
		}()
		d.NextRound(0)
	}()
	d.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stray RoundDone should panic")
			}
		}()
		d.RoundDone(r, 1)
	}()
}
