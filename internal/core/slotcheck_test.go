package core

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
)

func ids(ns ...int) []dfs.NodeID {
	out := make([]dfs.NodeID, len(ns))
	for i, n := range ns {
		out[i] = dfs.NodeID(n)
	}
	return out
}

func TestSlotCheckerExcludesSlowNode(t *testing.T) {
	log := trace.MustNew(32)
	sc := NewSlotChecker(0.5, 1.0, log)
	all := ids(0, 1, 2, 3)
	sc.Observe(0, 1.0, 0)
	sc.Observe(1, 1.0, 0)
	sc.Observe(2, 0.2, 0) // straggler
	sc.Observe(3, 0.9, 0)
	avail := sc.Available(all, 1)
	if len(avail) != 3 {
		t.Fatalf("available = %v, want 3 nodes", avail)
	}
	for _, n := range avail {
		if n == 2 {
			t.Fatal("straggler node 2 should be excluded")
		}
	}
	if exc := sc.excluded; len(exc) != 1 || !exc[2] {
		t.Fatalf("Excluded = %v", exc)
	}
	if evs := log.OfKind(trace.NodeExcluded); len(evs) != 1 {
		t.Fatalf("exclusion events = %d, want 1", len(evs))
	}
}

func TestSlotCheckerRestoresRecoveredNode(t *testing.T) {
	log := trace.MustNew(32)
	sc := NewSlotChecker(0.5, 1.0, log)
	all := ids(0, 1)
	sc.Observe(0, 1.0, 0)
	sc.Observe(1, 0.1, 0)
	if avail := sc.Available(all, 1); len(avail) != 1 {
		t.Fatalf("available = %v", avail)
	}
	// Node 1 recovers.
	sc.Observe(1, 1.0, 2)
	if avail := sc.Available(all, 3); len(avail) != 2 {
		t.Fatalf("after recovery available = %v, want both", avail)
	}
	if len(sc.excluded) != 0 {
		t.Fatalf("excluded = %v, want empty", sc.excluded)
	}
	if evs := log.OfKind(trace.NodeRestored); len(evs) != 1 {
		t.Fatalf("restore events = %d, want 1", len(evs))
	}
}

func TestSlotCheckerUnobservedAssumedNominal(t *testing.T) {
	sc := NewSlotChecker(0.5, 1.0, nil)
	all := ids(0, 1, 2)
	sc.Observe(1, 0.2, 0)
	avail := sc.Available(all, 1)
	// 0 and 2 unobserved -> nominal; 1 excluded.
	if len(avail) != 2 || avail[0] != 0 || avail[1] != 2 {
		t.Fatalf("available = %v, want [0 2]", avail)
	}
}

func TestSlotCheckerAllSlowKeepsAll(t *testing.T) {
	sc := NewSlotChecker(0.9, 1.0, nil)
	all := ids(0, 1)
	sc.Observe(0, 0.5, 0)
	sc.Observe(1, 0.5, 0)
	// Uniform slowness is the new nominal; nobody is a straggler.
	if avail := sc.Available(all, 1); len(avail) != 2 {
		t.Fatalf("available = %v, want both", avail)
	}
}

func TestSlotCheckerEWMA(t *testing.T) {
	sc := NewSlotChecker(0.5, 0.5, nil)
	sc.Observe(0, 1.0, 0)
	sc.Observe(0, 0.5, 1)
	if got := sc.est[0]; got != 0.75 {
		t.Fatalf("Estimate = %v, want 0.75 (EWMA alpha=0.5)", got)
	}
	if got := sc.est[9]; got != 0 {
		t.Fatalf("unobserved Estimate = %v, want 0", got)
	}
}

func TestSlotCheckerValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSlotChecker(0, 1, nil) },
		func() { NewSlotChecker(1.5, 1, nil) },
		func() { NewSlotChecker(0.5, 0, nil) },
		func() { NewSlotChecker(0.5, 1.5, nil) },
		func() { NewSlotChecker(0.5, 1, nil).Observe(0, 0, 0) },
		func() { NewSlotChecker(0.5, 1, nil).Observe(0, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
