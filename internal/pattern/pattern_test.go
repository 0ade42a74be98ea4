package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func randomPattern(rng *rand.Rand, r, c int, density float64) *Pattern {
	rows := make([][]int, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				rows[i] = append(rows[i], j)
			}
		}
	}
	return FromRows(r, c, rows)
}

func TestFromRowsSortsAndDedups(t *testing.T) {
	p := FromRows(2, 5, [][]int{{3, 1, 3, 0}, {4}})
	if got := p.Row(0); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("row 0 = %v", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	m, _ := sparse.NewCSRFromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 2, Val: 4},
	})
	p := FromCSR(m)
	if p.NNZ() != 4 || !p.Contains(1, 0) || p.Contains(0, 1) {
		t.Fatalf("FromCSR wrong: %v", p)
	}
	back := p.ToCSR(1)
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 4 || back.At(1, 0) != 1 {
		t.Error("ToCSR wrong")
	}
}

func TestContains(t *testing.T) {
	p := FromRows(2, 4, [][]int{{0, 2}, {}})
	if !p.Contains(0, 2) || p.Contains(0, 1) || p.Contains(1, 0) {
		t.Error("Contains wrong")
	}
}

func TestTransposeKnown(t *testing.T) {
	p := FromRows(2, 3, [][]int{{1, 2}, {0}})
	q := p.Transpose()
	if q.Rows != 3 || q.NCols != 2 {
		t.Fatalf("shape %dx%d", q.Rows, q.NCols)
	}
	if !q.Contains(1, 0) || !q.Contains(2, 0) || !q.Contains(0, 1) {
		t.Error("transpose positions wrong")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerTridiagonal(t *testing.T) {
	// Tridiagonal pattern: power 2 is pentadiagonal.
	n := 6
	rows := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i - 1; j <= i+1; j++ {
			if j >= 0 && j < n {
				rows[i] = append(rows[i], j)
			}
		}
	}
	p := FromRows(n, n, rows)
	p2 := p.Power(2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := abs(i-j) <= 2
			if p2.Contains(i, j) != want {
				t.Fatalf("p2(%d,%d)=%v want %v", i, j, p2.Contains(i, j), want)
			}
		}
	}
	if !p.Power(1).Equal(p) {
		t.Error("Power(1) must clone")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestMulPatternMatchesDenseBoolProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := randomPattern(rng, 8, 10, 0.3)
		b := randomPattern(rng, 10, 7, 0.3)
		c := a.MulPattern(b)
		for i := 0; i < 8; i++ {
			for j := 0; j < 7; j++ {
				want := false
				for k := 0; k < 10; k++ {
					if a.Contains(i, k) && b.Contains(k, j) {
						want = true
						break
					}
				}
				if c.Contains(i, j) != want {
					t.Fatalf("trial %d: c(%d,%d)=%v want %v", trial, i, j, c.Contains(i, j), want)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromRows(2, 3, [][]int{{0}, {1}})
	b := FromRows(2, 3, [][]int{{0, 2}, {1}})
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.SubsetOf(a) {
		t.Error("subset not reflexive")
	}
}

func TestBuilder(t *testing.T) {
	p := New(3, 5)
	p.AppendCol(1)
	p.AppendCol(3)
	p.CloseRow(0)
	p.CloseRow(1) // empty row
	for _, j := range []int{0, 2, 4} {
		p.AppendCol(j)
	}
	p.CloseRow(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Row(2); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("row 2 = %v", got)
	}
	if len(p.Row(1)) != 0 {
		t.Error("row 1 should be empty")
	}
	// Build gives the same pattern on any number of row chunks, including
	// more chunks than rows.
	for _, w := range []int{1, 2, 3, 7} {
		b := Build(3, 5, w, func(dst []int, i int) []int { return append(dst, p.Row(i)...) })
		if !b.Equal(p) {
			t.Errorf("Build on %d workers = %v %v, want %v %v", w, b.RowPtr, b.Cols, p.RowPtr, p.Cols)
		}
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.4)
		q := p.TransposeParallel(1 + rng.Intn(4))
		return q.Equal(p.Transpose()) && q.Transpose().Equal(p)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickPowerMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		// randomPattern's draws, each row with its diagonal added.
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = []int{i}
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					rows[i] = append(rows[i], j)
				}
			}
		}
		p := FromRows(n, n, rows)
		// With a full diagonal, pattern powers are monotone increasing.
		p2 := p.Power(2)
		p3 := p.Power(3)
		return p.SubsetOf(p2) && p2.SubsetOf(p3)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
