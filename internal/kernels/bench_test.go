package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func benchVecs(n int) (p, ap, x, r []float64) {
	rng := rand.New(rand.NewSource(1))
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	return mk(), mk(), mk(), mk()
}

// BenchmarkFusedBlas1 compares the fused PCG tail (one XRUpdate sweep)
// against the unfused three-kernel sequence it replaces. Both report
// allocs; both must be zero.
func BenchmarkFusedBlas1(b *testing.B) {
	const n = 1 << 20
	p, ap, x, r := benchVecs(n)
	e := New(n, parallel.MaxWorkers())
	alpha := 0.01
	b.Run("separate-axpy-axpy-dot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n * 8 * 5))
		for i := 0; i < b.N; i++ {
			e.Axpy(alpha, p, x)
			e.Axpy(-alpha, ap, r)
			_ = e.Dot(r, r)
		}
	})
	b.Run("fused-xrupdate", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n * 8 * 5))
		for i := 0; i < b.N; i++ {
			_ = e.XRUpdate(alpha, p, ap, x, r)
		}
	})
}

func BenchmarkEngineDot(b *testing.B) {
	const n = 1 << 20
	p, ap, _, _ := benchVecs(n)
	e := New(n, parallel.MaxWorkers())
	b.ReportAllocs()
	b.SetBytes(int64(n * 8 * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Dot(p, ap)
	}
}
