package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCSR(t *testing.T, r, c int, ts []Triplet) *CSR {
	t.Helper()
	m, err := NewCSRFromTriplets(r, c, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
	return m
}

func TestNewCSRFromTriplets(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5},
	})
	if m.NNZ() != 5 {
		t.Fatalf("nnz=%d, want 5", m.NNZ())
	}
	if got := m.At(0, 2); got != 2 {
		t.Errorf("At(0,2)=%g, want 2", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1)=%g, want 0", got)
	}
	if !m.Has(2, 0) || m.Has(1, 0) {
		t.Errorf("Has results wrong")
	}
}

func TestTripletsSumDuplicates(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {1, 1, -1}, {1, 1, 4}, {0, 1, 0.5},
	})
	if m.NNZ() != 3 {
		t.Fatalf("nnz=%d, want 3 after dedup", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 {
		t.Errorf("duplicates not summed: %g %g", m.At(0, 0), m.At(1, 1))
	}
}

func TestTripletsUnsortedInput(t *testing.T) {
	m := mustCSR(t, 2, 4, []Triplet{
		{1, 3, 4}, {0, 2, 2}, {1, 0, 3}, {0, 3, 9}, {0, 0, 1},
	})
	cols, vals := m.Row(0)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 3 {
		t.Fatalf("row 0 cols=%v", cols)
	}
	if vals[0] != 1 || vals[1] != 2 || vals[2] != 9 {
		t.Fatalf("row 0 vals=%v", vals)
	}
}

// TestTripletsAllocsIndependentOfRows: building lap64x64 (the 5-point
// Laplacian on a 64×64 grid, 4,096 rows, triplets in matgen's order)
// allocates a fixed handful of arrays, not one sorter per row.
func TestTripletsAllocsIndependentOfRows(t *testing.T) {
	const nx, ny = 64, 64
	var ts []Triplet
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			c := i*ny + j
			ts = append(ts, Triplet{c, c, 4})
			for _, nb := range [][3]int{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
				if nb[0] >= 0 && nb[0] < nx && nb[1] >= 0 && nb[1] < ny {
					ts = append(ts, Triplet{c, nb[0]*ny + nb[1], -1})
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewCSRFromTriplets(nx*ny, nx*ny, ts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("NewCSRFromTriplets on lap64x64 made %.0f allocations, want at most 8", allocs)
	}
}

func TestTripletsOutOfRange(t *testing.T) {
	if _, err := NewCSRFromTriplets(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := NewCSRFromTriplets(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestNewCSRFromRows(t *testing.T) {
	m, err := NewCSRFromRows(2, 3, [][]int{{2, 0}, {1}}, [][]float64{{5, 1}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 5 || m.At(1, 1) != 7 {
		t.Errorf("wrong values")
	}
	if _, err := NewCSRFromRows(2, 3, [][]int{{0}}, [][]float64{{1}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := NewCSRFromRows(1, 3, [][]int{{3}}, [][]float64{{1}}); err == nil {
		t.Error("column out of range accepted")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Fatalf("I(%d,%d)=%g", i, j, got)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{{0, 0, 2}, {1, 0, 5}, {2, 2, -7}})
	d := m.Diag()
	if d[0] != 2 || d[1] != 0 || d[2] != -7 {
		t.Errorf("Diag=%v", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {1, 1, 2}})
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Error("Clone shares value storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {1, 1, 2}})
	m.ColIdx[1] = 5
	if err := m.Validate(); err == nil {
		t.Error("out-of-range column not caught")
	}
	m = mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}})
	m.ColIdx[1] = 0
	if err := m.Validate(); err == nil {
		t.Error("non-ascending columns not caught")
	}
	m = mustCSR(t, 2, 2, []Triplet{{0, 0, 1}})
	m.RowPtr[2] = 0
	if err := m.Validate(); err == nil {
		t.Error("bad row pointer not caught")
	}
}

// randomCSR builds a random r x c matrix with approximately density*r*c
// entries, for property tests.
func randomCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	var ts []Triplet
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triplet{i, j, rng.NormFloat64()})
			}
		}
	}
	m, err := NewCSRFromTriplets(r, c, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestQuickTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomCSR(r, 1+int(rng.Int31n(20)), 1+int(rng.Int31n(20)), 0.3)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for k := range m.Val {
			if m.ColIdx[k] != tt.ColIdx[k] || m.Val[k] != tt.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTriangleDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomCSR(r, 12, 12, 0.4)
		lo := m.Lower()
		// Lower keeps exactly the entries on and below the diagonal.
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				want := m.At(i, j)
				if j > i {
					want = 0
				}
				if lo.At(i, j) != want {
					return false
				}
			}
		}
		return lo.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
