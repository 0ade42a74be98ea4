package kernels

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// forcePooled drops the BLAS-1 parallelism threshold so even tiny vectors
// exercise the pooled code paths, restoring it on cleanup.
func forcePooled(t *testing.T) {
	t.Helper()
	t.Cleanup(SetParallelMinLen(1))
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randSkewedCSR returns an n x n matrix where a few rows carry most of the
// nnz, plus guaranteed empty rows — the shapes that stress partition plans.
func randSkewedCSR(rng *rand.Rand, n int) *sparse.CSR {
	cols := make([][]int, n)
	vals := make([][]float64, n)
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 3: // empty row
		case i%11 == 0: // heavy row
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.8 {
					cols[i] = append(cols[i], j)
					vals[i] = append(vals[i], rng.NormFloat64())
				}
			}
		default:
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.05 {
					cols[i] = append(cols[i], j)
					vals[i] = append(vals[i], rng.NormFloat64())
				}
			}
		}
	}
	m, err := sparse.NewCSRFromRows(n, n, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

var testSizes = []int{1, 2, 3, 7, 100, 1023, 4096}

func TestEngineBlas1MatchesSerial(t *testing.T) {
	forcePooled(t)
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(42))
	const tol = 1e-13
	for _, n := range testSizes {
		for _, w := range []int{1, 2, 3, 4, 9} {
			e := NewWithPool(n, w, pool)
			a, b := randVec(rng, n), randVec(rng, n)
			if got, want := e.Dot(a, b), SerialDot(a, b); !relClose(got, want, tol) {
				t.Fatalf("n=%d w=%d Dot: got %g want %g", n, w, got, want)
			}
			if got, want := e.Norm2(a), math.Sqrt(SerialDot(a, a)); !relClose(got, want, tol) {
				t.Fatalf("n=%d w=%d Norm2: got %g want %g", n, w, got, want)
			}

			alpha := rng.NormFloat64()
			y1, y2 := append([]float64(nil), b...), append([]float64(nil), b...)
			e.Axpy(alpha, a, y1)
			SerialAxpy(alpha, a, y2)
			for i := range y1 {
				if !relClose(y1[i], y2[i], tol) {
					t.Fatalf("n=%d w=%d Axpy[%d]: got %g want %g", n, w, i, y1[i], y2[i])
				}
			}

			beta := rng.NormFloat64()
			y1, y2 = append([]float64(nil), b...), append([]float64(nil), b...)
			e.Xpay(a, beta, y1)
			SerialXpay(a, beta, y2)
			for i := range y1 {
				if !relClose(y1[i], y2[i], tol) {
					t.Fatalf("n=%d w=%d Xpay[%d]: got %g want %g", n, w, i, y1[i], y2[i])
				}
			}
		}
	}
}

func TestEngineFusedMatchesSerialSequence(t *testing.T) {
	forcePooled(t)
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(43))
	const tol = 1e-13
	for _, n := range testSizes {
		for _, w := range []int{1, 2, 4} {
			e := NewWithPool(n, w, pool)
			p, ap := randVec(rng, n), randVec(rng, n)
			x0, r0 := randVec(rng, n), randVec(rng, n)
			alpha := rng.NormFloat64()

			// XRUpdate vs the unfused three-kernel sequence.
			x1, r1 := append([]float64(nil), x0...), append([]float64(nil), r0...)
			x2, r2 := append([]float64(nil), x0...), append([]float64(nil), r0...)
			rr := e.XRUpdate(alpha, p, ap, x1, r1)
			SerialAxpy(alpha, p, x2)
			SerialAxpy(-alpha, ap, r2)
			if want := SerialDot(r2, r2); !relClose(rr, want, tol) {
				t.Fatalf("n=%d w=%d XRUpdate rr: got %g want %g", n, w, rr, want)
			}
			for i := range x1 {
				if !relClose(x1[i], x2[i], tol) || !relClose(r1[i], r2[i], tol) {
					t.Fatalf("n=%d w=%d XRUpdate[%d]: x %g/%g r %g/%g", n, w, i, x1[i], x2[i], r1[i], r2[i])
				}
			}
		}
	}
}

func TestEngineSpMVMatchesMulVec(t *testing.T) {
	forcePooled(t)
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 17, 150, 400} {
		m := randSkewedCSR(rng, n)
		x := randVec(rng, n)
		want := make([]float64, n)
		m.MulVec(want, x)
		for _, w := range []int{1, 2, 3, 8} {
			e := NewWithPool(n, w, pool)
			got := make([]float64, n)
			e.SpMM(m, got, x, 1)
			for i := range want {
				// The unrolled kernel sums each row in the same order on
				// every path, so parallel SpMV is bit-identical to serial.
				if got[i] != want[i] {
					t.Fatalf("n=%d w=%d SpMV[%d]: got %g want %g", n, w, i, got[i], want[i])
				}
			}
			m.InvalidatePlan()
		}
	}
}

// TestSpMMSerialBelowParallelMinLen pins SpMM to the size rule: on a
// 2-worker engine a product with rows×k below ParallelMinLen issues no pool
// dispatch and one at the threshold issues exactly one, and both are
// bitwise equal to the serial MulMatRange.
func TestSpMMSerialBelowParallelMinLen(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(46))
	for _, k := range []int{1, 8} {
		for _, rows := range []int{ParallelMinLen()/k - 1, ParallelMinLen() / k} {
			m := testMatrix(rows)
			x := blockVecs(rng, rows, k)
			want, got := make([]float64, rows*k), make([]float64, rows*k)
			m.MulMatRange(want, x, k, 0, rows)
			e := NewWithPool(rows, 2, pool)
			d0 := pool.Dispatches()
			e.SpMM(m, got, x, k)
			wantDispatches := int64(0)
			if rows*k >= ParallelMinLen() {
				wantDispatches = 1
			}
			if d := pool.Dispatches() - d0; d != wantDispatches {
				t.Errorf("k=%d rows=%d: %d pool dispatches, want %d", k, rows, d, wantDispatches)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d rows=%d [%d]: %v != %v", k, rows, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEngineConcurrentSolvesRace(t *testing.T) {
	forcePooled(t)
	rng := rand.New(rand.NewSource(45))
	const n = 512
	m := randSkewedCSR(rng, n)
	m.PartitionPlan(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			e := New(n, 4) // all goroutines hammer the shared default pool
			x, y := randVec(rng, n), make([]float64, n)
			p, ap := randVec(rng, n), randVec(rng, n)
			r := randVec(rng, n)
			for iter := 0; iter < 100; iter++ {
				e.SpMM(m, y, x, 1)
				_ = e.Dot(x, y)
				_ = e.XRUpdate(0.01, p, ap, x, r)
				e.Xpay(y, 0.5, p)
			}
		}(int64(g))
	}
	wg.Wait()
}
