package parallel

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunksCoverRangeExactly(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n % 2000)
		ww := int(w%20) + 1
		b := Chunks(nn, ww)
		if nn == 0 {
			return len(b) == 0
		}
		// Contiguous, disjoint, covering [0,nn).
		prev := 0
		for c := 0; c < len(b); c += 2 {
			lo, hi := b[c], b[c+1]
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == nn
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunksBalanced(t *testing.T) {
	b := Chunks(10, 3)
	sizes := []int{}
	for c := 0; c < len(b); c += 2 {
		sizes = append(sizes, b[c+1]-b[c])
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("sizes=%v", sizes)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		n := 500
		counts := make([]int32, n)
		For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	For(-5, 4, func(lo, hi int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Error("MaxWorkers < 1")
	}
}

func TestForPanicContainment(t *testing.T) {
	var ran atomic.Int64
	var got error
	func() {
		defer func() {
			if v := recover(); v != nil {
				var ok bool
				if got, ok = v.(*PanicError); !ok {
					t.Fatalf("re-panic value is %T, want *PanicError", v)
				}
			}
		}()
		For(100, 4, func(lo, hi int) {
			if lo == 0 {
				panic("poisoned chunk")
			}
			ran.Add(int64(hi - lo))
		})
	}()
	if got == nil {
		t.Fatalf("panic was swallowed")
	}
	pe := got.(*PanicError)
	if pe.Value != "poisoned chunk" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost the panic: %+v", pe)
	}
	// The other chunks must have run to completion: no deadlock, no
	// abandoned work (100 total minus the first chunk of 25).
	if ran.Load() != 75 {
		t.Fatalf("surviving chunks ran %d iterations, want 75", ran.Load())
	}
}

func TestForErrReturnsPanic(t *testing.T) {
	err := ForErr(10, 2, func(lo, hi int) {
		if lo == 0 {
			panic(42)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("ForErr = %v, want *PanicError{42}", err)
	}
	if err := ForErr(10, 2, func(lo, hi int) {}); err != nil {
		t.Fatalf("clean ForErr = %v", err)
	}
	// Single-worker path must contain panics the same way.
	err = ForErr(10, 1, func(lo, hi int) { panic("serial") })
	if !errors.As(err, &pe) || pe.Value != "serial" {
		t.Fatalf("serial ForErr = %v", err)
	}
}

func TestWorkerHook(t *testing.T) {
	var starts atomic.Int64
	SetWorkerHook(func(worker int) { starts.Add(1) })
	For(64, 4, func(lo, hi int) {})
	if starts.Load() != 4 {
		t.Fatalf("hook ran %d times, want 4", starts.Load())
	}
	starts.Store(0)
	For(64, 1, func(lo, hi int) {})
	if starts.Load() != 1 {
		t.Fatalf("single-worker For hook ran %d times, want 1", starts.Load())
	}
	SetWorkerHook(nil)
	starts.Store(0)
	For(64, 4, func(lo, hi int) {})
	if starts.Load() != 0 {
		t.Fatalf("removed hook still ran %d times", starts.Load())
	}
}
