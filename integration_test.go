package fsaie_test

import (
	"math"
	"path/filepath"
	"testing"

	fsaie "repro"
	fsai "repro/internal/core"
	"repro/internal/dense"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/precond"
	"repro/internal/reorder"
)

// TestIntegrationPipelineMMIO exercises the full cross-module pipeline:
// generate a suite matrix, serialize it through Matrix Market, read it
// back, reorder with RCM, build FSAIE(full) on the reordered system, solve
// with PCG, map the solution back and verify the original system's
// residual.
func TestIntegrationPipelineMMIO(t *testing.T) {
	spec, ok := matgen.ByName("jump56x56-b4-j1e4")
	if !ok {
		t.Fatal("missing spec")
	}
	orig := spec.Generate()

	// Serialize and reload (symmetric coordinate format).
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := mmio.WriteFile(path, orig, true); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != orig.NNZ() {
		t.Fatalf("mmio round trip changed nnz: %d vs %d", a.NNZ(), orig.NNZ())
	}

	// Reorder.
	perm := reorder.RCM(a)
	ap := reorder.ApplySym(a, perm)
	if reorder.Bandwidth(ap) > reorder.Bandwidth(a) {
		t.Logf("note: RCM bandwidth %d vs natural %d", reorder.Bandwidth(ap), reorder.Bandwidth(a))
	}

	// Precondition and solve the permuted system.
	b := spec.RHS(orig)
	bp := reorder.PermuteVec(b, perm)
	opts := fsaie.DefaultOptions()
	p, err := fsaie.New(ap, opts)
	if err != nil {
		t.Fatal(err)
	}
	xp := make([]float64, ap.Rows)
	res := fsaie.Solve(ap, xp, bp, p, fsaie.SolverDefaults())
	if !res.Converged {
		t.Fatalf("solve failed: %+v", res)
	}

	// Map back and verify the ORIGINAL system's residual.
	x := reorder.UnpermuteVec(xp, perm)
	r := make([]float64, orig.Rows)
	orig.MulVec(r, x)
	num, den := 0.0, 0.0
	for i := range r {
		d := r[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-7 {
		t.Errorf("original-system residual %g too large", rel)
	}
}

// TestIntegrationPreconditionerContract verifies that every preconditioner
// in the repository satisfies the CG contract on the same SPD system:
// symmetric positive application and actual convergence acceleration.
func TestIntegrationPreconditionerContract(t *testing.T) {
	a := matgen.Elasticity2D(16, 16, 100)
	n := a.Rows
	builders := map[string]func() (krylov.Preconditioner, error){
		"jacobi": func() (krylov.Preconditioner, error) { return krylov.NewJacobi(a), nil },
		"blockjacobi": func() (krylov.Preconditioner, error) {
			return precond.NewBlockJacobi(a, 8)
		},
		"ssor": func() (krylov.Preconditioner, error) { return precond.NewSSOR(a, 1.2) },
		"ic0":  func() (krylov.Preconditioner, error) { return precond.NewIC0(a) },
		"fsai": func() (krylov.Preconditioner, error) {
			o := fsai.DefaultOptions()
			o.Variant = fsai.VariantFSAI
			return fsai.Compute(a, o)
		},
		"fsaie-sp": func() (krylov.Preconditioner, error) {
			o := fsai.DefaultOptions()
			o.Variant = fsai.VariantSp
			return fsai.Compute(a, o)
		},
		"fsaie-full": func() (krylov.Preconditioner, error) {
			return fsai.Compute(a, fsai.DefaultOptions())
		},
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	x := make([]float64, n)
	plain := krylov.Solve(a, x, b, nil, krylov.DefaultOptions())
	if !plain.Converged {
		t.Fatal("plain CG failed")
	}
	for name, build := range builders {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Symmetry: <Mu, v> == <u, Mv>.
		u := make([]float64, n)
		v := make([]float64, n)
		for i := range u {
			u[i] = math.Sin(float64(i))
			v[i] = math.Cos(float64(3 * i))
		}
		mu := make([]float64, n)
		mv := make([]float64, n)
		m.Apply(mu, u)
		m.Apply(mv, v)
		l, r := krylov.Dot(mu, v), krylov.Dot(u, mv)
		if math.Abs(l-r) > 1e-8*(1+math.Abs(l)) {
			t.Errorf("%s: not symmetric (%g vs %g)", name, l, r)
		}
		// Positive: <Mu, u> > 0 for u != 0.
		if krylov.Dot(mu, u) <= 0 {
			t.Errorf("%s: not positive definite", name)
		}
		// Effective: no worse than plain CG.
		res := krylov.Solve(a, x, b, m, krylov.DefaultOptions())
		if !res.Converged {
			t.Errorf("%s: did not converge", name)
		}
		if res.Iterations > plain.Iterations {
			t.Errorf("%s: %d iterations, plain CG needs %d", name, res.Iterations, plain.Iterations)
		}
	}
}

// TestIntegrationSolutionAccuracy cross-checks the PCG solution against a
// direct dense solve on a small system, end to end through the facade.
func TestIntegrationSolutionAccuracy(t *testing.T) {
	a := matgen.Wathen(4, 4, 77)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	// Dense reference.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	dn := a.Extract(idx, nil)
	ref := append([]float64(nil), b...)
	if err := denseSolve(dn, n, ref); err != nil {
		t.Fatal(err)
	}
	// PCG with FSAIE.
	p, err := fsaie.New(a, fsaie.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	opts := fsaie.SolverDefaults()
	opts.Tol = 1e-12
	res := fsaie.Solve(a, x, b, p, opts)
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	var maxRef float64
	for i := range ref {
		if v := math.Abs(ref[i]); v > maxRef {
			maxRef = v
		}
	}
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-6*maxRef {
			t.Fatalf("x[%d]=%g, dense reference %g", i, x[i], ref[i])
		}
	}
}

// denseSolve is a local helper: dense SPD solve via the internal package.
func denseSolve(a []float64, n int, b []float64) error {
	return dense.SolveSPD(a, n, b, nil)
}
