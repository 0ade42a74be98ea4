package krylov_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// goldenCase pins one solve's observable numerics: the typed status, the
// iteration count, the exact bits of the final relative residual and a
// SHA-256 over the bits of the solution vector.
type goldenCase struct {
	matrix  string
	precond string
	workers int
	maxIter int

	status  krylov.Status
	iters   int
	relBits uint64
	xSHA    string
}

// goldenMatrix builds the operators of TestSolveGoldenNumerics: two matgen
// matrices — one small enough for the serial BLAS-1 path, one just above
// the pooled threshold (kernels.ParallelMinLen) so the 2-worker cases
// exercise chunked reductions — and an indefinite tridiagonal that breaks
// down.
func goldenMatrix(t *testing.T, name string) (*sparse.CSR, []float64) {
	t.Helper()
	var spec matgen.Spec
	switch name {
	case "jump64x64-b8-j1e3":
		s, ok := matgen.ByName(name)
		if !ok {
			t.Fatalf("matgen spec %q missing", name)
		}
		spec = s
	case "grid182x182":
		spec = matgen.Spec{ID: 900, Name: name, Gen: func() *sparse.CSR { return matgen.Laplace2D(182, 182).AddDiag(0.05) }}
	case "indef200":
		spec = matgen.Spec{ID: 901, Name: name, Gen: func() *sparse.CSR {
			n := 200
			c := sparse.NewCOO(n, n, 3*n)
			for i := 0; i < n; i++ {
				c.Add(i, i, 0.5)
				if i > 0 {
					c.Add(i, i-1, -1)
				}
				if i+1 < n {
					c.Add(i, i+1, -1)
				}
			}
			return c.ToCSR()
		}}
	default:
		t.Fatalf("unknown golden matrix %q", name)
	}
	a := spec.Generate()
	return a, spec.RHS(a)
}

// goldenPrecond builds the named preconditioner; FSAI factors are computed
// serially once, and the solves at every worker count share the factor.
func goldenPrecond(t *testing.T, name string, a *sparse.CSR) krylov.Preconditioner {
	t.Helper()
	switch name {
	case "none":
		return nil
	case "jacobi":
		return krylov.NewJacobi(a)
	}
	o := fsai.DefaultOptions()
	o.Workers = 1
	switch name {
	case "fsai":
		o.Variant = fsai.VariantFSAI
	case "fsaie":
		o.Variant = fsai.VariantFull
	default:
		t.Fatalf("unknown golden preconditioner %q", name)
	}
	p, err := fsai.Compute(a, o)
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	return p
}

func bitsSHA(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveGoldenNumerics pins Solve's exact output — status, iterations,
// residual bits and solution bits — for every preconditioner kind on two
// matgen operators at 1 and 2 workers, plus a breakdown and a budget
// exhaustion. The values were recorded from the original scalar PCG loop;
// Solve now runs as a one-column block solve and must reproduce them bit
// for bit.
func TestSolveGoldenNumerics(t *testing.T) {
	cases := []goldenCase{
		{"jump64x64-b8-j1e3", "none", 1, 0, krylov.StatusConverged, 494, 0x3e44148b046d91b6, "d464a88c1c13829b1c07b67347afd5599fdcf95936be8b2f631b903294e766a6"},
		{"jump64x64-b8-j1e3", "none", 2, 0, krylov.StatusConverged, 494, 0x3e44148b046d91b6, "d464a88c1c13829b1c07b67347afd5599fdcf95936be8b2f631b903294e766a6"},
		{"jump64x64-b8-j1e3", "jacobi", 1, 0, krylov.StatusConverged, 38, 0x3e434ffe9026dc97, "418721cc772752026df0d5863edf8378f07697de266c85a6d986b8e7554df151"},
		{"jump64x64-b8-j1e3", "jacobi", 2, 0, krylov.StatusConverged, 38, 0x3e434ffe9026dc97, "418721cc772752026df0d5863edf8378f07697de266c85a6d986b8e7554df151"},
		{"jump64x64-b8-j1e3", "fsai", 1, 0, krylov.StatusConverged, 20, 0x3e44cc41535fa37f, "81976420e1fd0d0c893cfdecbb071bb40f91e6d996dccd5de2b625a45f757cf7"},
		{"jump64x64-b8-j1e3", "fsai", 2, 0, krylov.StatusConverged, 20, 0x3e44cc41535fa37f, "81976420e1fd0d0c893cfdecbb071bb40f91e6d996dccd5de2b625a45f757cf7"},
		{"jump64x64-b8-j1e3", "fsaie", 1, 0, krylov.StatusConverged, 16, 0x3e386bac92378e9f, "c6803f7e30d685b66259f6d5304dc02e1594cd49e5a04e935ff041c0e57b459a"},
		{"jump64x64-b8-j1e3", "fsaie", 2, 0, krylov.StatusConverged, 16, 0x3e386bac92378e9f, "c6803f7e30d685b66259f6d5304dc02e1594cd49e5a04e935ff041c0e57b459a"},
		{"grid182x182", "none", 1, 0, krylov.StatusConverged, 112, 0x3e4478bdf1a5101c, "ead29e54ed63a412b9526b874b72526f1940a7f5a2a2924b7046f28ac31b349a"},
		{"grid182x182", "none", 2, 0, krylov.StatusConverged, 112, 0x3e4478bdf1a51232, "ef9c88e18c310f7a6aff50fd312545de4d763b3831f304c4f7686c6e54da18b7"},
		{"grid182x182", "jacobi", 1, 0, krylov.StatusConverged, 112, 0x3e4478bdf1a51274, "4df7dfbabc68497d201500d0dd92aaae28e826f675aa0afdb958aa7fe79c0c8a"},
		{"grid182x182", "jacobi", 2, 0, krylov.StatusConverged, 112, 0x3e4478bdf1a510f9, "c0a16742414b0df36bad5ca975ee665f709797d4c41c6c4d02d2d35425f5ad63"},
		{"grid182x182", "fsai", 1, 0, krylov.StatusConverged, 59, 0x3e44aa9c468cfaec, "8b7be11f24c897b0fc1cb799a9b9dc0f986324c0ee50658b6103e77b6806a0c7"},
		{"grid182x182", "fsai", 2, 0, krylov.StatusConverged, 59, 0x3e44aa9c468cfa72, "083869ea4cf430b727d369fb2611ba63e15840ab31d1ebaa62953bacb23314cb"},
		{"grid182x182", "fsaie", 1, 0, krylov.StatusConverged, 42, 0x3e43c04964a35a5f, "b751c3712b84f5f7118bd74dba01689609a4b8186a5ff4cb657d750e6d40a7b7"},
		{"grid182x182", "fsaie", 2, 0, krylov.StatusConverged, 42, 0x3e43c04964a35ae1, "96df42982ea438127b591a94f96fe7f5b6746f44f0edb9b9a40ddd72c7baa85d"},
		{"indef200", "none", 1, 0, krylov.StatusIndefinite, 1, 0x4009fbe9d22dd99a, "5094b7f5812725e3b22a4d76dd71d5588d8d441236b2401387e284397e1f1b85"},
		{"jump64x64-b8-j1e3", "none", 2, 100, krylov.StatusMaxIter, 100, 0x3fa7d6e450ad89a0, "f34a391bda7a7ae55232f3fc3bc7c413000d7e18f524e90eae28470fbbf04a64"},
	}
	type operator struct {
		a *sparse.CSR
		b []float64
	}
	operators := map[string]operator{}
	preconds := map[string]krylov.Preconditioner{}
	for _, c := range cases {
		op, ok := operators[c.matrix]
		if !ok {
			op.a, op.b = goldenMatrix(t, c.matrix)
			operators[c.matrix] = op
		}
		pkey := c.matrix + "/" + c.precond
		if _, ok := preconds[pkey]; !ok {
			preconds[pkey] = goldenPrecond(t, c.precond, op.a)
		}
		name := fmt.Sprintf("%s/%s/w=%d/maxiter=%d", c.matrix, c.precond, c.workers, c.maxIter)
		t.Run(name, func(t *testing.T) {
			a, b := op.a, op.b
			m := preconds[pkey]
			opt := krylov.DefaultOptions()
			opt.Workers = c.workers
			if c.maxIter > 0 {
				opt.MaxIter = c.maxIter
			}
			x := make([]float64, a.Rows)
			res := krylov.Solve(a, x, b, m, opt)
			got := goldenCase{matrix: c.matrix, precond: c.precond, workers: c.workers, maxIter: c.maxIter,
				status: res.Status, iters: res.Iterations,
				relBits: math.Float64bits(res.RelResidual), xSHA: bitsSHA(x)}
			if got != c {
				t.Errorf("golden mismatch:\n got  {%q, %q, %d, %d, %v, %d, %#x, %q}\n want {status=%v iters=%d rel=%#x x=%s}",
					got.matrix, got.precond, got.workers, got.maxIter, got.status, got.iters, got.relBits, got.xSHA,
					c.status, c.iters, c.relBits, c.xSHA)
			}
		})
	}
}
