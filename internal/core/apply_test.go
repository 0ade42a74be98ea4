package fsai

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// A solve applies the factor through ApplyBlock only if the factor is a
// krylov.BlockPreconditioner; otherwise it falls back to Apply per column.
var _ krylov.BlockPreconditioner = (*Preconditioner)(nil)

// TestApplyBlockColumnsMatchApply: every column of the factor's block
// application is bit-identical to the one-column apply of that column on a
// serial engine, at every block width, on engines of 1 and 2 workers, and
// steady-state block applications at a fixed width allocate nothing.
func TestApplyBlockColumnsMatchApply(t *testing.T) {
	a := matgen.Laplace2D(40, 40)
	o := DefaultOptions()
	o.Variant = VariantFull
	p, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if p.G.PartitionPlan(2).NChunks() != 2 || p.GT.PartitionPlan(2).NChunks() != 2 {
		t.Fatal("fixture too small for 2 workers to split the partition plans")
	}
	rng := rand.New(rand.NewSource(17))
	n := a.Rows
	serial := kernels.New(n, 1)
	ref, reftmp := make([]float64, n), make([]float64, n)
	for _, w := range []int{1, 2} {
		e := kernels.New(n, w)
		for _, k := range []int{1, 2, 3, 5, 8} {
			r := make([]float64, n*k)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			z, tmp := make([]float64, n*k), make([]float64, n*k)
			p.ApplyBlock(e, z, r, tmp, k)
			for j := 0; j < k; j++ {
				p.ApplyBlock(serial, ref, r[j*n:(j+1)*n], reftmp, 1)
				for i, want := range ref {
					if got := z[j*n+i]; got != want {
						t.Fatalf("workers=%d k=%d col %d row %d: ApplyBlock %v, serial apply %v", w, k, j, i, got, want)
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { p.ApplyBlock(e, z, r, tmp, k) }); allocs != 0 {
				t.Fatalf("workers=%d k=%d: ApplyBlock allocates %.1f times per call, want 0", w, k, allocs)
			}
		}
	}
}

// TestConcurrentSolvesShareOneFactor: one factor serves concurrent solves.
// Eight goroutines solve with the same FSAIE(full) factor at once, and every
// result and x is bit-identical to those of a lone solve with it, at 1 and
// at 2 workers. The larger matrix is above kernels.ParallelMinLen, so at 2
// workers the concurrent applies share the factor's partition plans on the
// pooled path too. The iteration cap keeps the test short under -race;
// every apply of every iteration is shared either way.
func TestConcurrentSolvesShareOneFactor(t *testing.T) {
	for _, a := range []*sparse.CSR{matgen.Laplace2D(40, 40), matgen.Laplace2D(192, 192)} {
		o := DefaultOptions()
		o.Variant = VariantFull
		p, err := Compute(a, o)
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		b := make([]float64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, w := range []int{1, 2} {
			opt := krylov.Options{Tol: 1e-8, MaxIter: 40, Workers: w}
			want := make([]float64, n)
			lone := krylov.Solve(a, want, b, p, opt)
			const solves = 8
			xs := make([][]float64, solves)
			res := make([]krylov.Result, solves)
			var wg sync.WaitGroup
			for g := range xs {
				xs[g] = make([]float64, n)
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res[g] = krylov.Solve(a, xs[g], b, p, opt)
				}(g)
			}
			wg.Wait()
			for g, x := range xs {
				if res[g].Iterations != lone.Iterations || res[g].Status != lone.Status ||
					math.Float64bits(res[g].RelResidual) != math.Float64bits(lone.RelResidual) {
					t.Fatalf("n=%d workers=%d solve %d: %v after %d iterations, rel %v; lone solve %v after %d, rel %v",
						n, w, g, res[g].Status, res[g].Iterations, res[g].RelResidual, lone.Status, lone.Iterations, lone.RelResidual)
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d workers=%d solve %d: x[%d] = %v, lone solve %v", n, w, g, i, x[i], want[i])
					}
				}
			}
		}
	}
}
