package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// skewedCSR builds an n x n matrix whose first rows are far denser than the
// rest, the shape that defeats equal-row partitioning.
func skewedCSR(n, heavyRows, heavyNNZ, lightNNZ int) *CSR {
	rng := rand.New(rand.NewSource(7))
	cols := make([][]int, n)
	vals := make([][]float64, n)
	for i := 0; i < n; i++ {
		k := lightNNZ
		if i < heavyRows {
			k = heavyNNZ
		}
		seen := map[int]bool{}
		for len(cols[i]) < k && len(cols[i]) < n {
			j := rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			cols[i] = append(cols[i], j)
			vals[i] = append(vals[i], rng.NormFloat64())
		}
	}
	m, err := NewCSRFromRows(n, n, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func planChunkNNZ(m *CSR, pl *Plan) []int {
	var out []int
	for c := 0; c < pl.NChunks(); c++ {
		lo, hi := pl.Bounds[2*c], pl.Bounds[2*c+1]
		out = append(out, m.RowPtr[hi]-m.RowPtr[lo])
	}
	return out
}

func TestPartitionPlanCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 17, 100} {
		m := randomCSR(rng, n, n, 0.2)
		for _, w := range []int{1, 2, 3, 8, n + 5} {
			pl := m.PartitionPlan(w)
			next := 0
			for c := 0; c < pl.NChunks(); c++ {
				lo, hi := pl.Bounds[2*c], pl.Bounds[2*c+1]
				if lo != next {
					t.Fatalf("n=%d w=%d chunk %d starts at %d, want %d", n, w, c, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d chunk %d negative extent", n, w, c)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d w=%d plan covers %d rows, want %d", n, w, next, n)
			}
			m.InvalidatePlan() // force a rebuild for the next worker count
		}
	}
}

func TestPartitionPlanBalancesSkewedMatrix(t *testing.T) {
	// 10 heavy rows with 200 nnz each, 990 light rows with 2 nnz: equal-row
	// chunking gives the first of 4 chunks ~2500 nnz vs a ~662 mean
	// (imbalance ~280%); the nnz-balanced plan must stay under 15%.
	m := skewedCSR(1000, 10, 200, 2)
	pl := m.PartitionPlan(4)
	nnz := planChunkNNZ(m, pl)
	total := 0
	maxC := 0
	for _, c := range nnz {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	if total != m.NNZ() {
		t.Fatalf("chunks hold %d nnz, matrix has %d", total, m.NNZ())
	}
	mean := float64(total) / float64(len(nnz))
	imb := 100 * (float64(maxC)/mean - 1)
	if imb > 15 {
		t.Fatalf("nnz imbalance %.1f%% (chunks %v), want <= 15%%", imb, nnz)
	}
	if math.Abs(pl.ImbalancePct-imb) > 1e-9 {
		t.Fatalf("plan reports imbalance %.3f%%, measured %.3f%%", pl.ImbalancePct, imb)
	}
}

func TestPartitionPlanCachedAndInvalidated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 50, 50, 0.2)
	p1 := m.PartitionPlan(4)
	if p2 := m.PartitionPlan(4); p2 != p1 {
		t.Fatal("same worker count must return the cached plan")
	}
	p3 := m.PartitionPlan(2)
	if p3 == p1 {
		t.Fatal("different worker count must rebuild the plan")
	}
	// Structural mutation through sortDedupRows drops the cache.
	m.sortDedupRows()
	if p4 := m.PartitionPlan(2); p4 == p3 {
		t.Fatal("sortDedupRows must invalidate the cached plan")
	}
}

func TestPartitionPlanEmptyAndSingleRow(t *testing.T) {
	empty := &CSR{Rows: 0, Cols: 0, RowPtr: []int{0}}
	if pl := empty.PartitionPlan(4); pl.NChunks() != 0 {
		t.Fatalf("empty matrix plan has %d chunks", pl.NChunks())
	}
	one, err := NewCSRFromRows(1, 3, [][]int{{0, 2}}, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	pl := one.PartitionPlan(4)
	if pl.NChunks() != 1 || pl.Bounds[0] != 0 || pl.Bounds[1] != 1 {
		t.Fatalf("single-row plan = %v", pl.Bounds)
	}
}
