package roofline

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sparse"
)

func tridiag3(t *testing.T) *sparse.CSR {
	t.Helper()
	// 3x3 tridiagonal: 7 stored entries, 4 row pointers.
	a, err := sparse.NewCSRFromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func lowerBidiag3(t *testing.T) *sparse.CSR {
	t.Helper()
	// A lower-triangular factor with 5 stored entries.
	g, err := sparse.NewCSRFromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 1, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 1, Val: 0.5}, {Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type workWant struct {
	kernel       string
	calls        int64
	flops, bytes float64
}

func checkWork(t *testing.T, label string, got []Achieved, want []workWant) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d kernel classes, want %d: %+v", label, len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Kernel != w.kernel || g.Calls != w.calls || g.Flops != w.flops || g.Bytes != w.bytes {
			t.Errorf("%s[%d] = %s calls=%d flops=%g bytes=%g, want %s calls=%d flops=%g bytes=%g",
				label, i, g.Kernel, g.Calls, g.Flops, g.Bytes, w.kernel, w.calls, w.flops, w.bytes)
		}
		if g.AI != g.Flops/g.Bytes || g.AchievedFlops != g.Flops/g.Seconds {
			t.Errorf("%s[%d]: AI %g / achieved %g inconsistent with its totals", label, i, g.AI, g.AchievedFlops)
		}
	}
}

// TestSolveEstimateWorkModel pins the one work account of the solve
// kernels against hand counts: 2 flops per stored entry per column, the
// matrix stream (16 B per entry + 8 B per row pointer) once per sweep,
// 8 B per input and output vector element per column, and the fused PCG
// BLAS-1 step at 12n flops over 104n bytes per column-iteration.
func TestSolveEstimateWorkModel(t *testing.T) {
	a, g := tridiag3(t), lowerBidiag3(t)
	if got, want := a.StreamBytes(), int64(16*7+8*4); got != want {
		t.Fatalf("a.StreamBytes() = %d, want %d", got, want)
	}
	if got, want := g.StreamBytes(), int64(16*5+8*4); got != want {
		t.Fatalf("g.StreamBytes() = %d, want %d", got, want)
	}
	const n, vec = 3, 8 * (3 + 3) // rows; one column's input + output bytes
	sky := arch.Skylake()

	const iters = 5
	checkWork(t, "SolveEstimate", SolveEstimate(a, g, iters, 1000, 2000, 3000, sky), []workWant{
		{KernelSpMV, iters, 2 * 7 * iters, iters * (16*7 + 8*4 + vec)},
		{KernelApplyG, iters, 2 * 2 * 5 * iters, 2 * iters * (16*5 + 8*4 + vec)},
		{KernelBLAS1, iters, 12 * n * iters, 104 * n * iters},
	})

	// A block solve streams each matrix once per sweep; flops and vector
	// bytes follow the column-iterations (10 over 4 sweeps: columns
	// deflated at different sweeps).
	const sweeps, colIters = 4, 10
	checkWork(t, "BlockSolveEstimate", BlockSolveEstimate(a, g, sweeps, colIters, 1000, 2000, 3000, sky), []workWant{
		{KernelSpMM, sweeps, 2 * 7 * colIters, sweeps*(16*7+8*4) + colIters*vec},
		{KernelApplyG, sweeps, 2 * 2 * 5 * colIters, 2 * (sweeps*(16*5+8*4) + colIters*vec)},
		{KernelBLAS1, sweeps, 12 * n * colIters, 104 * n * colIters},
	})

	// No factor omits apply_g; a class without measured time is omitted.
	checkWork(t, "no factor, no blas1 time", SolveEstimate(a, nil, iters, 1000, 2000, 0, sky), []workWant{
		{KernelSpMV, iters, 2 * 7 * iters, iters * (16*7 + 8*4 + vec)},
	})
	if est := SolveEstimate(a, g, 0, 1000, 2000, 3000, sky); est != nil {
		t.Fatalf("zero iterations: %+v, want nil", est)
	}
}
