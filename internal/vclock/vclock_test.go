package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if v.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", v.Now())
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.AdvanceTo(v.Now().Add(2.5))
	v.AdvanceTo(v.Now().Add(1.5))
	if got := v.Now(); got != 4 {
		t.Fatalf("Now() = %v, want 4", got)
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	v := NewVirtual()
	v.AdvanceTo(10)
	if v.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", v.Now())
	}
	v.AdvanceTo(10) // same time is fine
	if v.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", v.Now())
	}
}

func TestVirtualRejectsBackwards(t *testing.T) {
	v := NewVirtual()
	v.AdvanceTo(5)
	for _, fn := range []func(){
		func() { v.AdvanceTo(v.Now().Add(-1)) },
		func() { v.AdvanceTo(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on backwards time")
				}
			}()
			fn()
		}()
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() { // readers see time only move forward
			defer wg.Done()
			last := Time(0)
			for j := 0; j < 100; j++ {
				now := v.Now()
				if now < last {
					t.Errorf("Now() went back from %v to %v", last, now)
				}
				last = now
			}
		}()
	}
	for j := 1; j <= 800; j++ {
		v.AdvanceTo(Time(j))
	}
	wg.Wait()
	if got := v.Now(); got != 800 {
		t.Fatalf("Now() = %v, want 800", got)
	}
}

func TestWallMovesForward(t *testing.T) {
	w := NewWallSince(time.Now())
	t0 := w.Now()
	time.Sleep(5 * time.Millisecond)
	t1 := w.Now()
	if !(t0 < t1) {
		t.Fatalf("wall clock did not advance: %v -> %v", t0, t1)
	}
}

func TestWallAdvanceToPastReturnsAtOnce(t *testing.T) {
	w := NewWallSince(time.Now().Add(-time.Hour))
	began := time.Now()
	w.AdvanceTo(w.Now() - 1)
	w.AdvanceTo(0)
	if took := time.Since(began); took > 50*time.Millisecond {
		t.Fatalf("AdvanceTo a passed instant took %v", took)
	}
	if now := w.Now(); now < 3600 || now > 3700 {
		t.Fatalf("a clock whose epoch is an hour ago reads %v", now)
	}
}

func TestWallAdvanceToFutureWaitsForIt(t *testing.T) {
	w := NewWallSince(time.Now())
	for _, d := range []Duration{0.001, 0.02, 1e-9} {
		target := w.Now().Add(d)
		w.AdvanceTo(target)
		if now := w.Now(); now < target {
			t.Fatalf("AdvanceTo(%v) returned at %v", target, now)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var t0 Time = 10
	t1 := t0.Add(5)
	if t1 != 15 {
		t.Fatalf("Add = %v, want 15", t1)
	}
	if d := t1.Sub(t0); d != 5 {
		t.Fatalf("Sub = %v, want 5", d)
	}
	if !(t0 < t1) || t1 < t0 {
		t.Fatal("< is inconsistent")
	}
	if Duration(2.5).Seconds() != 2.5 {
		t.Fatal("Seconds() mismatch")
	}
}

func TestStringFormats(t *testing.T) {
	if got := Time(1.5).String(); got != "1.500s" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := Duration(0.25).String(); got != "0.250s" {
		t.Fatalf("Duration.String = %q", got)
	}
}
