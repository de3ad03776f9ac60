package faults

import (
	"testing"

	"s3sched/internal/dfs"
)

// Same seed must produce the same fault schedule; a different seed a
// different one (overwhelmingly likely at this sample size).
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		var out []bool
		for b := 0; b < 50; b++ {
			for n := uint64(0); n < 4; n++ {
				for a := uint64(0); a < 3; a++ {
					out = append(out, Roll(seed, HashBlock(dfs.BlockID{File: "f", Index: b}), n, a) < 0.3)
				}
			}
		}
		return out
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different schedules")
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("rate 0.3 failed %d/%d attempts, want a nontrivial fraction", fails, len(a))
	}
}

func TestRollUniformish(t *testing.T) {
	// Sanity: Roll stays in [0,1) and is not constant.
	lo, hi := 1.0, 0.0
	for i := uint64(0); i < 1000; i++ {
		v := Roll(42, i, i*3, i*7)
		if v < 0 || v >= 1 {
			t.Fatalf("Roll out of range: %v", v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > 0.1 || hi < 0.9 {
		t.Errorf("Roll range [%v,%v] suspiciously narrow", lo, hi)
	}
}
