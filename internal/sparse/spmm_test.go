package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMulMatMatchesMulVec proves every column of the k-column block product
// is bit-identical to the single-vector product of that column, across odd
// widths that exercise the 4/2/1-column kernel groups.
func TestMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{40, 40}, {63, 31}, {17, 90}} {
		m := randomCSR(rng, dims[0], dims[1], 0.15)
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
			x := make([]float64, k*m.Cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, k*m.Rows)
			m.MulMat(y, x, k)
			ref := make([]float64, m.Rows)
			for j := 0; j < k; j++ {
				m.MulVec(ref, x[j*m.Cols:(j+1)*m.Cols])
				for i, want := range ref {
					if got := y[j*m.Rows+i]; got != want {
						t.Fatalf("%dx%d k=%d col %d row %d: got %v want %v (not bit-identical)",
							dims[0], dims[1], k, j, i, got, want)
					}
				}
			}
		}
	}
}

// TestMulMatRangeChunks proves range-chunked evaluation (the pooled
// dispatch pattern) assembles the same bits as the whole-matrix call.
func TestMulMatRangeChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 70, 70, 0.1)
	const k = 5
	x := make([]float64, k*m.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, k*m.Rows)
	m.MulMat(want, x, k)
	got := make([]float64, k*m.Rows)
	for lo := 0; lo < m.Rows; lo += 13 {
		hi := lo + 13
		if hi > m.Rows {
			hi = m.Rows
		}
		m.MulMatRange(got, x, k, lo, hi)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// BenchmarkSpMM measures per-RHS SpMM throughput across block widths. The
// figure of merit is ns/op divided by k: at k=8 the matrix stream is read
// once for eight columns, so per-RHS time should drop well below the k=1
// (plain SpMV) cost. Nothing checks that ratio; the benchmark reports it.
func BenchmarkSpMM(b *testing.B) {
	m := benchMatrix(20000)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(benchName(k), func(b *testing.B) {
			x := make([]float64, k*m.Cols)
			y := make([]float64, k*m.Rows)
			for i := range x {
				x[i] = float64(i % 7)
			}
			b.ReportAllocs()
			b.SetBytes(int64(m.NNZ()*12) + int64(8*k*(m.Rows+m.Cols)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulMat(y, x, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/rhs")
		})
	}
}

func benchName(k int) string {
	return fmt.Sprintf("k=%d", k)
}
