package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// benchMatrix builds a banded-ish matrix with ~10 entries per row for SpMV
// benchmarking.
func benchMatrix(n int) *CSR {
	rng := rand.New(rand.NewSource(1))
	b := NewCOO(n, n, 11*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 10)
		for k := 0; k < 10; k++ {
			j := i - 50 + rng.Intn(101)
			if j < 0 || j >= n || j == i {
				continue
			}
			b.Add(i, j, -0.1)
		}
	}
	return b.ToCSR()
}

func BenchmarkSpMV(b *testing.B) {
	m := benchMatrix(20000)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
	b.SetBytes(int64(m.NNZ() * 12))
}

// benchSkewedMatrix concentrates ~60% of the nnz in the first 2% of the
// rows, the shape where equal-row chunking starves all workers but one.
func benchSkewedMatrix(n int) *CSR {
	rng := rand.New(rand.NewSource(2))
	heavy := n / 50
	b := NewCOO(n, n, 6*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 10)
		per := 3
		if i < heavy {
			per = 150
		}
		for k := 0; k < per; k++ {
			j := rng.Intn(n)
			if j != i {
				b.Add(i, j, -0.01)
			}
		}
	}
	return b.ToCSR()
}

// BenchmarkSpMVSkewed compares the SpMV scheduling strategies on a matrix
// with heavy row skew: serial, the pre-plan equal-row chunking, and the
// cached nnz-balanced partition plan. All variants report allocs; the
// pooled paths must show zero in steady state.
func BenchmarkSpMVSkewed(b *testing.B) {
	m := benchSkewedMatrix(20000)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	w := parallel.MaxWorkers()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(m.NNZ() * 12))
		for i := 0; i < b.N; i++ {
			m.MulVec(y, x)
		}
	})
	b.Run("pool-equalrows", func(b *testing.B) {
		bounds := parallel.Chunks(m.Rows, w)
		body := func(_, lo, hi int) { m.MulMatRange(y, x, 1, lo, hi) }
		b.ReportAllocs()
		b.SetBytes(int64(m.NNZ() * 12))
		for i := 0; i < b.N; i++ {
			if err := parallel.Default().Run(bounds, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool-nnzplan", func(b *testing.B) {
		m.PartitionPlan(w) // build once outside the timed region
		b.ReportAllocs()
		b.SetBytes(int64(m.NNZ() * 12))
		for i := 0; i < b.N; i++ {
			m.MulVecParallel(y, x, w)
		}
	})
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

func BenchmarkExtract(b *testing.B) {
	m := benchMatrix(5000)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i * 70
	}
	buf := make([]float64, 64*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Extract(idx, buf)
	}
}
