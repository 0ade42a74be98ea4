package fsai

import (
	"testing"

	"repro/internal/krylov"
	"repro/internal/matgen"
)

func TestAdaptivePatternsAreLowerTriangularWithDiagonal(t *testing.T) {
	a := matgen.Laplace2D(12, 12)
	p, err := ComputeAdaptive(a, AdaptiveOptions{MaxPerRow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FinalPattern.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		row := p.FinalPattern.Row(i)
		if len(row) == 0 || row[len(row)-1] != i {
			t.Fatalf("row %d: diagonal not last: %v", i, row)
		}
		for _, j := range row {
			if j > i {
				t.Fatalf("row %d: entry above diagonal: %v", i, row)
			}
		}
		if len(row) > 8 {
			t.Fatalf("row %d exceeds budget: %d", i, len(row))
		}
	}
}

func TestAdaptiveBeatsStaticAtSameBudget(t *testing.T) {
	// On an anisotropic problem, an adaptively grown pattern of ~k entries
	// per row should beat (or at least match) the static lower(A) pattern,
	// which has at most 3-5 entries per row, and approach the quality of
	// much denser static patterns.
	a := matgen.Anisotropic2D(32, 32, 0.01)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	static, err := Compute(a, Options{Variant: VariantFSAI, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	resStatic := krylov.Solve(a, x, b, static, krylov.DefaultOptions())

	adapt, err := ComputeAdaptive(a, AdaptiveOptions{MaxPerRow: 8, Tol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	resAdapt := krylov.Solve(a, x, b, adapt, krylov.DefaultOptions())
	t.Logf("static: %d iters (nnz %d); adaptive: %d iters (nnz %d)",
		resStatic.Iterations, static.NNZ(), resAdapt.Iterations, adapt.NNZ())
	if !resAdapt.Converged {
		t.Fatal("adaptive did not converge")
	}
	if resAdapt.Iterations > resStatic.Iterations {
		t.Errorf("adaptive (%d) should not lose to static lower(A) (%d)",
			resAdapt.Iterations, resStatic.Iterations)
	}
}

func TestAdaptiveCacheExtensionComposes(t *testing.T) {
	// Section 8's claim: the cache-friendly extension improves *any*
	// pattern strategy. Extending the adaptive pattern must not hurt
	// iterations and must keep the adaptive entries.
	a := matgen.JumpCoefficient2D(32, 32, 4, 1e3, 3)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)

	plainOpts := AdaptiveOptions{MaxPerRow: 8, Tol: 0.02}
	p1, err := ComputeAdaptive(a, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	r1 := krylov.Solve(a, x, b, p1, krylov.DefaultOptions())

	extOpts := plainOpts
	extOpts.CacheExtend = 64
	extOpts.Filter = 0.01
	p2, err := ComputeAdaptive(a, extOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2 := krylov.Solve(a, x, b, p2, krylov.DefaultOptions())

	t.Logf("adaptive: %d iters (nnz %d); +cache extension: %d iters (nnz %d)",
		r1.Iterations, p1.NNZ(), r2.Iterations, p2.NNZ())
	if !p1.BasePattern.SubsetOf(p2.FinalPattern) {
		t.Error("extension lost adaptive entries")
	}
	if p2.NNZ() <= p1.NNZ() {
		t.Error("extension added nothing")
	}
	if r2.Iterations > r1.Iterations {
		t.Errorf("extension hurt iterations: %d -> %d", r1.Iterations, r2.Iterations)
	}
}

func TestAdaptiveTolStopsGrowth(t *testing.T) {
	// A very loose tolerance keeps patterns near-diagonal; a tight one
	// grows them toward the budget.
	a := matgen.Laplace2D(10, 10)
	loose, err := ComputeAdaptive(a, AdaptiveOptions{MaxPerRow: 10, Tol: 10})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ComputeAdaptive(a, AdaptiveOptions{MaxPerRow: 10, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NNZ() >= tight.NNZ() {
		t.Errorf("loose tol nnz %d should be < tight tol nnz %d", loose.NNZ(), tight.NNZ())
	}
	if loose.NNZ() != a.Rows {
		t.Errorf("tol=10 should keep diagonal-only patterns, nnz=%d", loose.NNZ())
	}
}

func TestAdaptiveErrors(t *testing.T) {
	rect := matgen.Laplace2D(3, 3)
	rect.Cols++ // corrupt shape
	if _, err := ComputeAdaptive(rect, AdaptiveOptions{}); err == nil {
		t.Error("non-square accepted")
	}
}
