package fsai

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dense"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// denseCG is the dense-block precalculation CG that localSystem.cg
// replaced, kept as the bitwise reference with its arithmetic unchanged (it
// returns only the iteration count): a is the column-major n×n block of
// which only the lower triangle is read.
func denseCG(a []float64, n int, x, b []float64, tol float64, maxIter int) int {
	for i := range x[:n] {
		x[i] = 0
	}
	r := append([]float64(nil), b[:n]...)
	p := append([]float64(nil), r...)
	ap := make([]float64, n)
	bnorm := math.Sqrt(denseDot(b[:n], b[:n]))
	if bnorm == 0 {
		return 0
	}
	rr := denseDot(r, r)
	iters := 0
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr)/bnorm <= tol {
			break
		}
		symMulVec(a, n, ap, p)
		pap := denseDot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := denseDot(r, r)
		beta := rrNew / rr
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		iters = it + 1
	}
	return iters
}

func denseDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// symMulVec is the dense symmetric product y = a x on a's lower triangle.
func symMulVec(a []float64, n int, y, x []float64) {
	for i := range y[:n] {
		y[i] = 0
	}
	for j := 0; j < n; j++ {
		xj := x[j]
		y[j] += a[j*n+j] * xj
		for i := j + 1; i < n; i++ {
			v := a[j*n+i]
			y[i] += v * xj
			y[j] += v * x[i]
		}
	}
}

// randSPD builds a random SPD matrix B + Bᵀ + (n+1)·I as a CSR and as the
// column-major dense block.
func randSPD(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
	d := make([]float64, n*n)
	c := sparse.NewCOO(n, n, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(n) + 1
			}
			d[j*n+i], d[i*n+j] = v, v
			c.AddSym(i, j, v)
		}
	}
	return c.ToCSR(), d
}

// gatherAll loads the whole of a as one local system.
func gatherAll(a *sparse.CSR) *localSystem {
	idx := make([]int, a.Rows)
	for i := range idx {
		idx[i] = i
	}
	ls := newLocalSystem(a.Rows)
	ls.gather(symmetricLower(a), idx)
	return ls
}

func TestSymmetricLowerReadsLowerTriangle(t *testing.T) {
	// [2 99; 1 3]: Â mirrors the lower 1 over the upper 99.
	c := sparse.NewCOO(2, 2, 4)
	c.Add(0, 0, 2)
	c.Add(0, 1, 99)
	c.Add(1, 0, 1)
	c.Add(1, 1, 3)
	h := symmetricLower(c.ToCSR())
	if fmt.Sprint(h.RowPtr, h.ColIdx, h.Val) != "[0 2 4] [0 1 0 1] [2 1 1 3]" {
		t.Errorf("Â = %v %v %v", h.RowPtr, h.ColIdx, h.Val)
	}
}

func TestLocalSystemGather(t *testing.T) {
	ls := newLocalSystem(5)
	ls.gather(symmetricLower(laplace1D(5)), []int{1, 3, 4})
	// Â({1,3,4},{1,3,4}) = [2 0 0; 0 2 -1; 0 -1 2].
	if got := fmt.Sprint(ls.ptr, ls.col, ls.val); got != "[0 1 3 5] [0 1 2 1 2] [2 2 -1 -1 2]" {
		t.Errorf("local system = %s", got)
	}
	for g, l := range ls.pos {
		if l != -1 {
			t.Errorf("scatter map left pos[%d] = %d", g, l)
		}
	}
}

func TestLocalCGConvergesOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	a, _ := randSPD(rng, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	gatherAll(a).cg(x, b, 1e-12, 10*n)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestLocalCGLooseToleranceGivesMagnitudes(t *testing.T) {
	// The precalculation use case: a handful of iterations at tol 0.1 must
	// already rank entries by order of magnitude.
	rng := rand.New(rand.NewSource(5))
	n := 20
	a, d := randSPD(rng, n)
	b := make([]float64, n)
	b[n-1] = 1
	exact := append([]float64(nil), b...)
	if err := dense.SolveSPD(d, n, exact, nil); err != nil {
		t.Fatal(err)
	}
	approx := make([]float64, n)
	if gatherAll(a).cg(approx, b, 0.1, 10) == 0 {
		t.Fatal("no iterations ran")
	}
	argmax := func(v []float64) int {
		k := 0
		for i := range v {
			if math.Abs(v[i]) > math.Abs(v[k]) {
				k = i
			}
		}
		return k
	}
	if argmax(exact) != argmax(approx) {
		t.Errorf("dominant entry mismatch: exact %d approx %d", argmax(exact), argmax(approx))
	}
}

func TestLocalCGZeroRHS(t *testing.T) {
	x := []float64{5}
	if iters := gatherAll(laplace1D(1)).cg(x, []float64{0}, 1e-10, 10); iters != 0 || x[0] != 0 {
		t.Errorf("zero RHS: %d iterations, x=%v", iters, x)
	}
}

// TestLocalCGBitIdenticalToDenseCG runs the sparse local CG and the dense
// reference on random index sets of QuickSuite matrices, at the
// precalculation's loose tolerance and at a tight one, with the unit
// right-hand side e_{m-1} and with random ones: iteration counts must be
// equal and x bit-identical.
func TestLocalCGBitIdenticalToDenseCG(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, spec := range matgen.QuickSuite() {
		a := spec.Generate()
		ahat := symmetricLower(a)
		ls := newLocalSystem(a.Rows)
		for trial := 0; trial < 40; trial++ {
			i := rng.Intn(a.Rows)
			set := map[int]bool{i: true}
			cols, _ := a.Row(i)
			for _, j := range cols {
				set[j] = true
			}
			for w, j := 1+rng.Intn(64), i-1; j >= 0 && j >= i-w; j-- {
				if rng.Intn(2) == 0 {
					set[j] = true
				}
			}
			idx := make([]int, 0, len(set))
			for j := range set {
				idx = append(idx, j)
			}
			sort.Ints(idx)
			m := len(idx)
			b := make([]float64, m)
			if trial%2 == 0 {
				sparse.GatherRHS(b, m-1)
			} else {
				for k := range b {
					b[k] = rng.NormFloat64()
				}
			}
			tol, maxIter := 5e-3, 25
			if trial%4 >= 2 {
				tol, maxIter = 1e-14, 4*m
			}
			want := make([]float64, m)
			wantIters := denseCG(a.Extract(idx, nil), m, want, b, tol, maxIter)
			ls.gather(ahat, idx)
			got := make([]float64, m)
			gotIters := ls.cg(got, b, tol, maxIter)
			if gotIters != wantIters {
				t.Fatalf("%s rows %v: %d iterations, dense CG %d", spec.Name, idx, gotIters, wantIters)
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s rows %v: x[%d]=%v, dense CG %v", spec.Name, idx, k, got[k], want[k])
				}
			}
		}
	}
}

// TestScatterBlockMatchesExtract: the scatter gather of A(S,S) writes the
// block sparse.Extract writes, bit for bit and zeros included, on random
// index sets of the QuickSuite matrices, and leaves the map cleared.
func TestScatterBlockMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, spec := range matgen.QuickSuite() {
		a := spec.Generate()
		pos := newScatter(a.Rows)
		for trial := 0; trial < 40; trial++ {
			i := rng.Intn(a.Rows)
			set := map[int]bool{i: true}
			cols, _ := a.Row(i)
			for _, j := range cols {
				set[j] = true
			}
			for k := rng.Intn(64); k > 0; k-- {
				set[rng.Intn(a.Rows)] = true
			}
			idx := make([]int, 0, len(set))
			for j := range set {
				idx = append(idx, j)
			}
			sort.Ints(idx)
			m := len(idx)
			want := a.Extract(idx, nil)
			got := make([]float64, m*m)
			for k := range got {
				got[k] = math.NaN() // block must overwrite every entry
			}
			pos.load(idx)
			pos.block(a, idx, got)
			pos.unload(idx)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s trial %d: entry %d = %v, want %v", spec.Name, trial, k, got[k], want[k])
				}
			}
		}
		for g, l := range pos {
			if l != -1 {
				t.Fatalf("%s: map entry %d left at %d", spec.Name, g, l)
			}
		}
	}
}
