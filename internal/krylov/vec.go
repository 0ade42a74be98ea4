// Package krylov implements the iterative solvers of the reproduction: the
// Conjugate Gradient method and its preconditioned variant (PCG). The solve
// loop schedules its SpMV and BLAS-1 sweeps on internal/kernels (pooled,
// nnz-balanced, fused — see docs/performance.md), whose SerialAxpy and
// SerialXpay are the reference update kernels; the vector helpers below
// serve callers outside the hot path.
package krylov

import "math"

// Dot returns the dot product of a and b (equal lengths assumed).
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Fill sets every element of a to v.
func Fill(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

// AllFinite reports whether every element of a is finite (no NaN or Inf).
// The resilience layer uses it to decide whether a breakdown checkpoint's
// iterate is worth restarting from.
func AllFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
