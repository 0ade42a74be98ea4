package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseOf expands a CSR matrix to a dense [][]float64 for oracle checks.
func denseOf(m *CSR) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, j := range cols {
			d[i][j] += vals[k]
		}
	}
	return d
}

func denseMulVec(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i := range d {
		for j := range d[i] {
			y[i] += d[i][j] * x[j]
		}
	}
	return y
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 5+rng.Intn(15), 5+rng.Intn(15), 0.3)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, m.Rows)
		m.MulVec(y, x)
		want := denseMulVec(denseOf(m), x)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: y[%d]=%g want %g", trial, i, y[i], want[i])
			}
		}
	}
}

func TestMulVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 200, 150, 0.1)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ys := make([]float64, m.Rows)
	yp := make([]float64, m.Rows)
	m.MulVec(ys, x)
	for _, workers := range []int{1, 2, 3, 8} {
		m.MulVecParallel(yp, x, workers)
		for i := range ys {
			if ys[i] != yp[i] {
				t.Fatalf("workers=%d: y[%d] %g != %g", workers, i, yp[i], ys[i])
			}
		}
	}
}

func TestMulVecPanicsOnBadSizes(t *testing.T) {
	m := Identity(3)
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched lengths")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestTransposeKnown(t *testing.T) {
	m, _ := NewCSRFromTriplets(2, 3, []Triplet{{0, 1, 5}, {1, 2, 7}, {0, 0, 1}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(1, 0) != 5 || tr.At(2, 1) != 7 || tr.At(0, 0) != 1 {
		t.Errorf("transpose values wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTriangles(t *testing.T) {
	m, _ := NewCSRFromTriplets(3, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 0, 3}, {1, 1, 4}, {2, 1, 5}, {2, 2, 6},
	})
	lo := m.Lower()
	if lo.NNZ() != 5 || lo.Has(0, 2) {
		t.Errorf("Lower wrong: %v", lo)
	}
}

func TestThreshold(t *testing.T) {
	m, _ := NewCSRFromTriplets(2, 2, []Triplet{
		{0, 0, 4}, {1, 1, 1}, {0, 1, 0.1}, {1, 0, 0.1},
	})
	// scale for (0,1) is sqrt(4*1)=2; 0.1 < tau*2 for tau=0.1.
	th := m.Threshold(0.1)
	if th.Has(0, 1) || th.Has(1, 0) {
		t.Error("small entries not dropped")
	}
	if !th.Has(0, 0) || !th.Has(1, 1) {
		t.Error("diagonal dropped")
	}
	// tau=0.01: 0.1 >= 0.02 stays.
	th = m.Threshold(0.01)
	if !th.Has(0, 1) {
		t.Error("large entry dropped")
	}
}

func TestIsSymmetric(t *testing.T) {
	m, _ := NewCSRFromTriplets(2, 2, []Triplet{{0, 1, 3}, {1, 0, 3}, {0, 0, 1}, {1, 1, 1}})
	if !m.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	m2, _ := NewCSRFromTriplets(2, 2, []Triplet{{0, 1, 3}, {1, 0, 2.9}, {0, 0, 1}, {1, 1, 1}})
	if m2.IsSymmetric(0.01) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if !m2.IsSymmetric(0.2) {
		t.Error("tolerance not respected")
	}
	m3, _ := NewCSRFromTriplets(2, 3, nil)
	if m3.IsSymmetric(0) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestNorms(t *testing.T) {
	m, _ := NewCSRFromTriplets(2, 2, []Triplet{{0, 0, -3}, {1, 1, 4}})
	if m.MaxNorm() != 4 {
		t.Errorf("MaxNorm=%g", m.MaxNorm())
	}
	if math.Abs(m.FrobNorm()-5) > 1e-15 {
		t.Errorf("FrobNorm=%g", m.FrobNorm())
	}
}

func TestAddDiag(t *testing.T) {
	// Matrix with some missing diagonal entries.
	m, _ := NewCSRFromTriplets(3, 3, []Triplet{{0, 1, 2}, {1, 1, 3}, {2, 0, 4}})
	s := m.AddDiag(1.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 1.5 || s.At(1, 1) != 4.5 || s.At(2, 2) != 1.5 {
		t.Errorf("AddDiag values: %g %g %g", s.At(0, 0), s.At(1, 1), s.At(2, 2))
	}
	if s.At(0, 1) != 2 || s.At(2, 0) != 4 {
		t.Error("AddDiag disturbed off-diagonal entries")
	}
}

func TestExtract(t *testing.T) {
	m, _ := NewCSRFromTriplets(4, 4, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 2}, {2, 2, 4}, {3, 3, 5}, {2, 3, 6}, {3, 2, 6},
	})
	idx := []int{0, 2, 3}
	d := m.Extract(idx, nil)
	// Column-major 3x3 of rows/cols {0,2,3}.
	want := []float64{1, 2, 0 /*col 0*/, 2, 4, 6 /*col 1*/, 0, 6, 5 /*col 2*/}
	for k := range want {
		if d[k] != want[k] {
			t.Fatalf("Extract[%d]=%g want %g (all %v)", k, d[k], want[k], d)
		}
	}
	// Buffer reuse clears stale data.
	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = 99
	}
	d2 := m.Extract(idx, buf)
	for k := range want {
		if d2[k] != want[k] {
			t.Fatalf("Extract reuse [%d]=%g want %g", k, d2[k], want[k])
		}
	}
}

func TestGatherRHS(t *testing.T) {
	e := []float64{9, 9, 9}
	GatherRHS(e, 1)
	if e[0] != 0 || e[1] != 1 || e[2] != 0 {
		t.Errorf("GatherRHS=%v", e)
	}
}

func TestQuickMulVecLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 15, 15, 0.3)
		x1 := make([]float64, 15)
		x2 := make([]float64, 15)
		for i := range x1 {
			x1[i], x2[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		a, b := rng.NormFloat64(), rng.NormFloat64()
		// y(a*x1 + b*x2) == a*y(x1) + b*y(x2)
		xc := make([]float64, 15)
		for i := range xc {
			xc[i] = a*x1[i] + b*x2[i]
		}
		y1 := make([]float64, 15)
		y2 := make([]float64, 15)
		yc := make([]float64, 15)
		m.MulVec(y1, x1)
		m.MulVec(y2, x2)
		m.MulVec(yc, xc)
		for i := range yc {
			if math.Abs(yc[i]-(a*y1[i]+b*y2[i])) > 1e-9*(1+math.Abs(yc[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDropZeros(t *testing.T) {
	m, _ := NewCSRFromTriplets(2, 2, []Triplet{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 0}})
	d := m.DropZeros()
	// Diagonal zeros kept, off-diagonal zeros dropped (none off-diag zero here).
	if !d.Has(0, 0) || !d.Has(1, 1) {
		t.Error("diagonal zeros must be kept")
	}
	m2, _ := NewCSRFromTriplets(2, 2, []Triplet{{0, 1, 0}, {0, 0, 1}, {1, 1, 1}})
	d2 := m2.DropZeros()
	if d2.Has(0, 1) {
		t.Error("off-diagonal zero kept")
	}
}

func TestCOOBuilder(t *testing.T) {
	b := NewCOO(3, 3, 4)
	b.AddSym(0, 1, -1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	b.Add(2, 2, 1)
	if b.NNZ() != 5 {
		t.Fatalf("COO nnz=%d", b.NNZ())
	}
	m := b.ToCSR()
	if !m.IsSymmetric(0) {
		t.Error("AddSym result not symmetric")
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Error("AddSym values wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("COO.Add out of range did not panic")
		}
	}()
	b.Add(3, 0, 1)
}
