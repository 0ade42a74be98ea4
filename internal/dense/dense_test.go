package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random SPD column-major matrix: B + Bᵀ + n·I.
func randSPD(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a[j*n+i] = v
			a[i*n+j] = v
		}
		a[j*n+j] += float64(n) + 1
	}
	return a
}

func matVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			y[i] += a[j*n+i] * x[j]
		}
	}
	return y
}

func TestCholeskyKnown2x2(t *testing.T) {
	// [4 2; 2 3] = L Lᵀ with L = [2 0; 1 sqrt(2)].
	a := []float64{4, 2, 2, 3}
	if err := Cholesky(a, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0]-2) > 1e-15 || math.Abs(a[1]-1) > 1e-15 || math.Abs(a[3]-math.Sqrt2) > 1e-15 {
		t.Errorf("L = %v", a)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	if err := Cholesky(a, 2); err != ErrNotSPD {
		t.Errorf("got %v, want ErrNotSPD", err)
	}
}

func TestCholeskySolveAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randSPD(rng, n)
		orig := append([]float64(nil), a...)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := matVec(orig, n, x)
		if err := Cholesky(a, n); err != nil {
			t.Fatal(err)
		}
		CholeskySolve(a, n, b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, b[i], x[i])
			}
		}
	}
}

func TestLDLTSolveAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 10, 40} {
		a := randSPD(rng, n)
		orig := append([]float64(nil), a...)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := matVec(orig, n, x)
		if err := LDLT(a, n); err != nil {
			t.Fatal(err)
		}
		LDLTSolve(a, n, b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, b[i], x[i])
			}
		}
	}
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	a := randSPD(rng, n)
	orig := append([]float64(nil), a...)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := matVec(orig, n, x)
	if err := SolveSPD(a, n, b, nil); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d]=%g want %g", i, b[i], x[i])
		}
	}
}

func TestSolveSPDRejectsSingular(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1}
	if err := SolveSPD(a, 2, b, nil); err == nil {
		t.Error("singular matrix accepted")
	}
}

func TestQuickCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		orig := append([]float64(nil), a...)
		if err := Cholesky(a, n); err != nil {
			return false
		}
		// Check L·Lᵀ == orig on the lower triangle.
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k <= j; k++ {
					s += a[k*n+i] * a[k*n+j]
				}
				if math.Abs(s-orig[j*n+i]) > 1e-8*(1+math.Abs(orig[j*n+i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// choleskyRowAtATime is Cholesky with one row of column j per pass over k:
// the oracle its four-row update must match bit for bit.
func choleskyRowAtATime(a []float64, n int) error {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			l := a[k*n+j]
			d -= l * l
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[j*n+i]
			for k := 0; k < j; k++ {
				s -= a[k*n+i] * a[k*n+j]
			}
			a[j*n+i] = s * inv
		}
	}
	return nil
}

// TestCholeskyBitIdenticalToRowAtATime: the four-row update leaves every
// bit of the row-at-a-time factor for random SPD matrices of every size
// 1…64, so the rows left over after the groups of four are covered too.
func TestCholeskyBitIdenticalToRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 3; trial++ {
			a := randSPD(rng, n)
			want := append([]float64(nil), a...)
			if err := Cholesky(a, n); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := choleskyRowAtATime(want, n); err != nil {
				t.Fatalf("n=%d oracle: %v", n, err)
			}
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d trial %d: entry %d = %v, want %v", n, trial, k, a[k], want[k])
				}
			}
		}
	}
}
