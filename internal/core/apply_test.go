package fsai

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// TestApplyWorkersSemantics pins the unified Workers convention: <=0 means
// "all CPUs" and 1 means serial, and every setting computes the same z
// (SpMV partitioning never changes per-row arithmetic, so the match is
// exact). Before the kernel-layer rewrite, Workers==0 silently meant serial
// here while meaning "all CPUs" everywhere else in the stack.
func TestApplyWorkersSemantics(t *testing.T) {
	a := matgen.Laplace2D(20, 20)
	rng := rand.New(rand.NewSource(9))
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}

	base, err := Compute(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 1
	want := make([]float64, a.Rows)
	base.Apply(want, r)

	for _, w := range []int{-3, 0, 2, 5} {
		p, err := Compute(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = w
		z := make([]float64, a.Rows)
		p.Apply(z, r)
		for i := range z {
			if z[i] != want[i] {
				t.Fatalf("Workers=%d: z[%d]=%g differs from serial %g", w, i, z[i], want[i])
			}
		}
	}
}

// TestApplyNoAllocsSteadyState checks that Compute pre-allocates Apply's
// scratch and engine, so applications inside the solve loop stay heap-quiet.
func TestApplyNoAllocsSteadyState(t *testing.T) {
	a := matgen.Laplace2D(16, 16)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = 1
	}
	p.Apply(z, r) // warm any lazily-built partition plans
	allocs := testing.AllocsPerRun(50, func() { p.Apply(z, r) })
	if allocs != 0 {
		t.Fatalf("Apply allocates %.1f times per call, want 0", allocs)
	}
}

// TestApplyBlockColumnsMatchApply: every column of the factor's block
// application is bit-identical to Apply on that column, at every block
// width, on the serial path and on the pooled 2-worker path, and
// steady-state block applications at a fixed width allocate nothing.
func TestApplyBlockColumnsMatchApply(t *testing.T) {
	a := matgen.Laplace2D(40, 40)
	o := DefaultOptions()
	o.Variant = VariantFull
	base, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.G.PartitionPlan(2).NChunks() != 2 || base.GT.PartitionPlan(2).NChunks() != 2 {
		t.Fatal("fixture too small for 2 workers to split the partition plans")
	}
	rng := rand.New(rand.NewSource(17))
	n := a.Rows
	for _, w := range []int{1, 2} {
		p := base.CloneForApply(w)
		for _, k := range []int{1, 2, 3, 5, 8} {
			r := make([]float64, n*k)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			z := make([]float64, n*k)
			p.ApplyBlock(z, r, k)
			ref := make([]float64, n)
			for j := 0; j < k; j++ {
				p.Apply(ref, r[j*n:(j+1)*n])
				for i, want := range ref {
					if got := z[j*n+i]; got != want {
						t.Fatalf("workers=%d k=%d col %d row %d: ApplyBlock %v, Apply %v", w, k, j, i, got, want)
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { p.ApplyBlock(z, r, k) }); allocs != 0 {
				t.Fatalf("workers=%d k=%d: ApplyBlock allocates %.1f times per call, want 0", w, k, allocs)
			}
		}
	}
}
