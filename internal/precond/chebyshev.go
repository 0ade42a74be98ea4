package precond

import (
	"fmt"

	"repro/internal/sparse"
)

// Chebyshev is the polynomial preconditioner M⁻¹ = p(A), with p the degree-d
// Chebyshev polynomial minimizing the residual over an eigenvalue interval
// [lo, hi]. Like FSAI it applies through SpMV only (d products per
// application) — the other classic answer to "triangular solves don't
// parallelize" — but unlike FSAI it needs spectrum bounds and pays d SpMVs
// per PCG iteration. The spectral package's Lanczos estimator supplies the
// bounds.
type Chebyshev struct {
	a       *sparse.CSR
	degree  int
	lo, hi  float64
	tmp     [3][]float64
	workers int
}

// NewChebyshev builds a degree-d Chebyshev preconditioner for A with
// eigenvalue bounds [lo, hi] (lo > 0). Bounds need not be tight; loose
// bounds only weaken the polynomial.
func NewChebyshev(a *sparse.CSR, degree int, lo, hi float64) (*Chebyshev, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: Chebyshev needs a square matrix")
	}
	if degree < 1 {
		return nil, fmt.Errorf("precond: Chebyshev degree %d < 1", degree)
	}
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("precond: invalid spectrum bounds [%g, %g]", lo, hi)
	}
	c := &Chebyshev{a: a, degree: degree, lo: lo, hi: hi}
	for i := range c.tmp {
		c.tmp[i] = make([]float64, a.Rows)
	}
	return c, nil
}

// Apply computes z ≈ A⁻¹ r with the standard Chebyshev semi-iteration
// (Saad, Iterative Methods for Sparse Linear Systems, Alg. 12.1) on
// A z = r starting from z = 0. The result is a fixed polynomial in A times
// r, hence a symmetric positive definite preconditioner suitable for CG.
func (c *Chebyshev) Apply(z, r []float64) {
	theta := (c.hi + c.lo) / 2
	delta := (c.hi - c.lo) / 2
	n := c.a.Rows
	d, ap, res := c.tmp[0], c.tmp[1], c.tmp[2]

	sigma1 := theta / delta
	rho := 1 / sigma1
	// First step: z = d = r/theta.
	for i := 0; i < n; i++ {
		z[i] = r[i] / theta
		d[i] = z[i]
	}
	for k := 2; k <= c.degree; k++ {
		// res = r - A z
		c.a.MulVec(ap, z)
		for i := 0; i < n; i++ {
			res[i] = r[i] - ap[i]
		}
		rhoNew := 1 / (2*sigma1 - rho)
		for i := 0; i < n; i++ {
			d[i] = rhoNew*rho*d[i] + 2*rhoNew/delta*res[i]
			z[i] += d[i]
		}
		rho = rhoNew
	}
}
