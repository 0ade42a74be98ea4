package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
)

// maxRelResidual is the largest true relative residual ‖b − A·x‖/‖b‖ an
// answer may have. Solves run at a recurrence tolerance of 1e-8.
const maxRelResidual = 1e-7

// relResidual recomputes ‖b − A·x‖/‖b‖ with a plain serial loop over the
// CSR arrays, independent of the kernels under test.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		r := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			r -= a.Val[k] * x[a.ColIdx[k]]
		}
		rr += r * r
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// checkAnswer returns why x is not an accepted answer to A·x = b, or ""
// when it is: the solver must report convergence and the true residual
// must be within maxRelResidual.
func checkAnswer(a *sparse.CSR, x, b []float64, converged bool) string {
	if !converged {
		return "solver did not converge"
	}
	if rr := relResidual(a, x, b); !(rr <= maxRelResidual) {
		return fmt.Sprintf("true relative residual %.3g > %.0e", rr, maxRelResidual)
	}
	return ""
}

// seededRHS draws a right-hand side the way the paper prescribes: uniform
// values in [-1, 1] divided by the max-norm of A.
func seededRHS(rng *rand.Rand, a *sparse.CSR) []float64 {
	norm := a.MaxNorm()
	if norm == 0 {
		norm = 1
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = (2*rng.Float64() - 1) / norm
	}
	return b
}

// fixedRHS is the right-hand side pcg_iterations is counted on: drawn like
// seededRHS but from a constant seed, so it depends on the matrix alone.
func fixedRHS(a *sparse.CSR) []float64 { return seededRHS(rand.New(rand.NewSource(0)), a) }
