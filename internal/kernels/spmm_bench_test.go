package kernels_test

import (
	"fmt"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/matgen"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// BenchmarkEngineSpMMWorkers measures what a second worker buys SpMV
// (k = 1) with each operand of an FSAIE(full) solve — A, G and Gᵀ — on
// Laplace2D grids from 40² to 256² rows, the sweep behind ParallelMinLen.
// The threshold is lowered to 1 so the 2-worker case always runs pooled;
// compare the w=2 and w=1 times per (rows, operand) pair.
func BenchmarkEngineSpMMWorkers(b *testing.B) {
	defer kernels.SetParallelMinLen(1)()
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, nx := range []int{40, 64, 91, 128, 181, 256} {
		a := matgen.Laplace2D(nx, nx)
		p, err := fsai.Compute(a, fsai.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		x, y := make([]float64, a.Rows), make([]float64, a.Rows)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		for _, op := range []struct {
			name string
			m    *sparse.CSR
		}{{"A", a}, {"G", p.G}, {"GT", p.GT}} {
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("rows=%d/%s/w=%d", a.Rows, op.name, w), func(b *testing.B) {
					e := kernels.NewWithPool(a.Rows, w, pool)
					e.SpMM(op.m, y, x, 1) // builds the partition plan
					b.SetBytes(op.m.StreamBytes())
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.SpMM(op.m, y, x, 1)
					}
				})
			}
		}
	}
}
