package faults

import (
	"errors"
	"testing"

	"s3sched/internal/dfs"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"rate", Config{ReadFailRate: 0.5}, true},
		{"rate-high", Config{ReadFailRate: 1}, false},
		{"rate-neg", Config{ReadFailRate: -0.1}, false},
		{"bound-neg", Config{MaxInjectedPerBlock: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// Same seed must produce the same fault schedule; a different seed a
// different one (overwhelmingly likely at this sample size).
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		in, err := New(Config{Seed: seed, ReadFailRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for b := 0; b < 50; b++ {
			for n := 0; n < 4; n++ {
				for a := 0; a < 3; a++ {
					err := in.FailRead(dfs.BlockID{File: "f", Index: b}, dfs.NodeID(n))
					out = append(out, err != nil)
				}
			}
		}
		return out
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
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
		t.Errorf("rate 0.3 injected %d/%d failures, want a nontrivial fraction", fails, len(a))
	}
}

// Interleaving across blocks/nodes must not perturb a pair's schedule:
// the decision depends only on the pair's own attempt count.
func TestScheduleIndependentOfInterleaving(t *testing.T) {
	read := func(in *Injector, b, n int) bool {
		return in.FailRead(dfs.BlockID{File: "f", Index: b}, dfs.NodeID(n)) != nil
	}
	in1, _ := New(Config{Seed: 3, ReadFailRate: 0.4})
	in2, _ := New(Config{Seed: 3, ReadFailRate: 0.4})
	// in1: block 0 three times, then block 1 three times.
	var a []bool
	for i := 0; i < 3; i++ {
		a = append(a, read(in1, 0, 0))
	}
	for i := 0; i < 3; i++ {
		a = append(a, read(in1, 1, 0))
	}
	// in2: interleaved.
	var b0, b1 []bool
	for i := 0; i < 3; i++ {
		b0 = append(b0, read(in2, 0, 0))
		b1 = append(b1, read(in2, 1, 0))
	}
	for i := 0; i < 3; i++ {
		if a[i] != b0[i] {
			t.Fatalf("block 0 attempt %d: sequential %v vs interleaved %v", i, a[i], b0[i])
		}
		if a[3+i] != b1[i] {
			t.Fatalf("block 1 attempt %d: sequential %v vs interleaved %v", i, a[3+i], b1[i])
		}
	}
}

func TestMaxInjectedPerBlock(t *testing.T) {
	// Rate just under 1 fails essentially every attempt, but the bound
	// forces success from the third attempt on.
	in, err := New(Config{Seed: 1, ReadFailRate: 0.999, MaxInjectedPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := dfs.BlockID{File: "f", Index: 0}
	fails := 0
	for i := 0; i < 5; i++ {
		if e := in.FailRead(id, 0); e != nil {
			if !errors.Is(e, ErrInjected) {
				t.Fatalf("injected error does not wrap ErrInjected: %v", e)
			}
			fails++
			if i >= 2 {
				t.Fatalf("attempt %d failed past the MaxInjectedPerBlock=2 bound", i+1)
			}
		}
	}
	if fails == 0 {
		t.Error("rate 0.999 injected no failures in the first two attempts")
	}
	if in.Stats().InjectedReadFailures != int64(fails) {
		t.Errorf("stats count %d, want %d", in.Stats().InjectedReadFailures, fails)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.FailRead(dfs.BlockID{File: "f"}, 0); err != nil {
		t.Errorf("nil injector failed a read: %v", err)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Errorf("nil injector stats = %+v", s)
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
