package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func blockVecs(rng *rand.Rand, n, k int) []float64 {
	v := make([]float64, n*k)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func testMatrix(n int) *sparse.CSR {
	b := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2.5)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i+1 < n {
			b.Add(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

// TestSpMMBitIdenticalToSpMV proves the pooled block product reproduces the
// serial single-vector product (MulVec) bit-for-bit per column, on the
// forced-pooled path (parallelMinLen lowered) and across worker counts.
func TestSpMMBitIdenticalToSpMV(t *testing.T) {
	defer SetParallelMinLen(64)()
	rng := rand.New(rand.NewSource(5))
	n := 500
	m := testMatrix(n)
	for _, w := range []int{1, 2, 4} {
		for _, k := range []int{1, 2, 3, 4, 6, 8} {
			e := New(n, w)
			x := blockVecs(rng, n, k)
			y := make([]float64, n*k)
			e.SpMM(m, y, x, k)
			ref := make([]float64, n)
			for j := 0; j < k; j++ {
				m.MulVec(ref, x[j*n:(j+1)*n])
				for i := range ref {
					if y[j*n+i] != ref[i] {
						t.Fatalf("w=%d k=%d col %d row %d: %v != %v", w, k, j, i, y[j*n+i], ref[i])
					}
				}
			}
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops pooled objects at random, so a round trip through the
// pool may allocate.
var raceEnabled bool

// TestBlockScratchPoolReuse checks the size-keyed scratch pool hands back
// buffers of the exact requested length, and that a Get/Put round trip
// allocates nothing once the pool holds a buffer of that length.
func TestBlockScratchPoolReuse(t *testing.T) {
	for _, n := range []int{128, 128 * 8, 999} {
		s := GetBlockScratch(n)
		if len(*s) != n {
			t.Fatalf("GetBlockScratch(%d) returned len %d", n, len(*s))
		}
		PutBlockScratch(s)
		s2 := GetBlockScratch(n)
		if len(*s2) != n {
			t.Fatalf("reused buffer has len %d want %d", len(*s2), n)
		}
		PutBlockScratch(s2)
		if raceEnabled {
			continue
		}
		if a := testing.AllocsPerRun(100, func() { PutBlockScratch(GetBlockScratch(n)) }); a != 0 {
			t.Errorf("n=%d: %v allocations per Get/Put round trip, want 0", n, a)
		}
	}
}

// TestBlockBlas1ZeroAllocs: in steady state one block-PCG iteration's
// kernel sequence — SpMM over k columns plus the per-column dot, fused
// iterate/residual update and search-direction update — performs zero heap
// allocations on the pooled path.
func TestBlockBlas1ZeroAllocs(t *testing.T) {
	defer SetParallelMinLen(1 << 10)()
	n := 1 << 12
	const k = 8
	rng := rand.New(rand.NewSource(2))
	e := New(n, 2)
	m := testMatrix(n)
	m.PartitionPlan(2)
	p := blockVecs(rng, n, k)
	x := blockVecs(rng, n, k)
	r := blockVecs(rng, n, k)
	q := make([]float64, n*k)
	iteration := func() {
		e.SpMM(m, q, p, k)
		for j := 0; j < k; j++ {
			pj, qj, rj := p[j*n:(j+1)*n], q[j*n:(j+1)*n], r[j*n:(j+1)*n]
			alpha := 1e-9 / (1 + math.Abs(e.Dot(pj, qj)))
			e.XRUpdate(alpha, pj, qj, x[j*n:(j+1)*n], rj)
			e.Xpay(rj, 1e-3, pj)
		}
	}
	iteration() // warm up the partition plan and pool
	if allocs := testing.AllocsPerRun(20, iteration); allocs != 0 {
		t.Fatalf("block-PCG kernels allocated %.1f times per run; want 0", allocs)
	}
}
