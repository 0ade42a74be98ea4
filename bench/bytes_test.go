package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/sparse"
)

// tridiag3 is [[4 1 0] [1 4 1] [0 1 4]]: 3 rows, 7 stored entries.
func tridiag3() *sparse.CSR {
	return &sparse.CSR{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 5, 7},
		ColIdx: []int{0, 1, 0, 1, 2, 1, 2},
		Val:    []float64{4, 1, 1, 4, 1, 1, 4},
	}
}

func TestSpMVBytesHandCounted(t *testing.T) {
	// 7 values × 8 B + 7 column indices × 8 B + 4 row pointers × 8 B
	// + x and y, 3 elements × 8 B each.
	const want = 7*8 + 7*8 + 4*8 + 2*3*8
	if got := spmvBytes(tridiag3()); got != want {
		t.Fatalf("spmvBytes = %d, want %d", got, want)
	}
}

// The host reference must do a whole mat-vec whatever its worker count.
func TestHostRefMulVec(t *testing.T) {
	a := tridiag3()
	for _, workers := range []int{1, 2, 3} {
		h := newHostRef(workers, time.Millisecond, a)
		h.y = []float64{-1, -1, -1}
		h.mulVec(h.mats[0])
		want := make([]float64, 3)
		a.MulVec(want, h.x)
		for i := range want {
			if math.Abs(h.y[i]-want[i]) > 1e-15 {
				t.Fatalf("workers=%d: y = %v, want %v", workers, h.y, want)
			}
		}
		if s := h.scale(); !(s > 0) {
			t.Fatalf("workers=%d: scale %g", workers, s)
		}
	}
}

func TestRelResidual(t *testing.T) {
	a := tridiag3()
	x := []float64{1, 2, 3}
	b := []float64{6, 12, 14} // A·x
	if r := relResidual(a, x, b); r != 0 {
		t.Errorf("exact answer: residual %g, want 0", r)
	}
	if r := relResidual(a, make([]float64, 3), b); math.Abs(r-1) > 1e-15 {
		t.Errorf("x = 0: residual %g, want 1", r)
	}
	if r := relResidual(a, x[:2], b); !math.IsInf(r, 1) {
		t.Errorf("short x: residual %g, want +Inf", r)
	}
	if why := checkAnswer(a, x, b, false); why == "" {
		t.Error("a non-converged solve was accepted")
	}
	if why := checkAnswer(a, []float64{1, 2, 3.001}, b, true); why == "" {
		t.Error("an answer with residual 2e-4 was accepted")
	}
}
