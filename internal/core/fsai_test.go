package fsai

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

func laplace1D(n int) *sparse.CSR {
	b := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

func TestInitialPattern(t *testing.T) {
	a := laplace1D(6)
	p := InitialPattern(a, 0, 1, 1)
	// Lower triangle with diagonal: row 0 = {0}, row i = {i-1, i}.
	if len(p.Row(0)) != 1 {
		t.Errorf("row 0 = %v", p.Row(0))
	}
	for i := 1; i < 6; i++ {
		r := p.Row(i)
		if len(r) != 2 || r[0] != i-1 || r[1] != i {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Power 2: row i = {i-2, i-1, i}.
	p2 := InitialPattern(a, 0, 2, 1)
	if r := p2.Row(3); len(r) != 3 || r[0] != 1 {
		t.Errorf("power-2 row 3 = %v", r)
	}
	// A missing diagonal is added, after the row's lower entries, and the
	// upper entries are dropped, on any number of row chunks.
	nd, _ := sparse.NewCSRFromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	for _, w := range []int{1, 2, 3} {
		if p := InitialPattern(nd, 0, 1, w); fmt.Sprint(p.RowPtr, p.Cols) != "[0 1 3 4] [0 0 1 2]" {
			t.Errorf("%d workers: pattern without diagonals = %v %v, want [0 1 3 4] [0 0 1 2]", w, p.RowPtr, p.Cols)
		}
	}
}

func TestInitialPatternThreshold(t *testing.T) {
	// Matrix with a tiny off-diagonal entry that thresholding removes.
	a, _ := sparse.NewCSRFromTriplets(3, 3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1}, {Row: 1, Col: 0, Val: 1e-6}, {Row: 0, Col: 1, Val: 1e-6}, {Row: 2, Col: 1, Val: 0.5}, {Row: 1, Col: 2, Val: 0.5},
	})
	p := InitialPattern(a, 1e-3, 1, 1)
	if p.Contains(1, 0) {
		t.Error("thresholded entry survived")
	}
	if !p.Contains(2, 1) {
		t.Error("large entry dropped")
	}
}

// TestFSAIUnitDiagonalProperty checks the Kolotilina-Yeremin normalization:
// diag(G A Gᵀ) = 1 for every row.
func TestFSAIUnitDiagonalProperty(t *testing.T) {
	for _, gen := range []*sparse.CSR{
		laplace1D(30),
		matgen.Laplace2D(8, 8),
		matgen.Wathen(4, 4, 9),
	} {
		p, err := Compute(gen, Options{Variant: VariantFSAI, LineBytes: 64, PatternPower: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := gen.Rows
		tmp := make([]float64, n)
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			// (G A Gᵀ)_{ii} = g_iᵀ A g_i where g_i is row i of G.
			gi := make([]float64, n)
			cols, vals := p.G.Row(i)
			for k, j := range cols {
				gi[j] = vals[k]
			}
			gen.MulVec(tmp, gi)
			q := 0.0
			for j := range gi {
				q += gi[j] * tmp[j]
			}
			if math.Abs(q-1) > 1e-8 {
				t.Fatalf("row %d: g A gᵀ = %g, want 1", i, q)
			}
			_ = out
		}
	}
}

// TestFSAIExactInverseOnFullPattern: with the full lower-triangular
// pattern, GᵀG is the exact inverse, so PCG converges in one iteration.
func TestFSAIExactInverseOnFullPattern(t *testing.T) {
	n := 12
	a := laplace1D(n)
	rows := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			rows[i] = append(rows[i], j)
		}
	}
	full := pattern.FromRows(n, n, rows)
	g, err := ComputeOnPattern(a, full, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &Preconditioner{G: g, GT: g.Transpose()}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	x := make([]float64, n)
	res := krylov.Solve(a, x, b, p, krylov.Options{Tol: 1e-10, MaxIter: 3})
	if !res.Converged || res.Iterations > 2 {
		t.Errorf("exact-inverse FSAI should converge immediately: %+v", res)
	}
}

// TestFrobeniusOptimality: the computed G minimizes ||I - GL||_F over its
// pattern, which implies the normal-equations residual (A Gᵀ)_{ji} = 0 for
// every off-diagonal pattern position (i,j) — perturbing any stored
// off-diagonal entry can only increase the preconditioned iteration count.
// We verify the stationarity condition directly: for row i with pattern S_i,
// (A ĝ_i)_j = 0 for all j in S_i, j != i (ĝ the unscaled row solving
// A(S_i,S_i) ĝ = e_i).
func TestFrobeniusOptimality(t *testing.T) {
	a := matgen.Laplace2D(6, 6)
	p, err := Compute(a, Options{Variant: VariantFSAI, LineBytes: 64, PatternPower: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		cols, vals := p.G.Row(i)
		gi := make([]float64, n)
		for k, j := range cols {
			gi[j] = vals[k]
		}
		agi := make([]float64, n)
		a.MulVec(agi, gi)
		for _, j := range cols {
			if j == i {
				continue
			}
			if math.Abs(agi[j]) > 1e-8 {
				t.Fatalf("row %d: (A g_i)_%d = %g, want 0 (not Frobenius-stationary)", i, j, agi[j])
			}
		}
	}
}

func TestComputeRejectsNonSquare(t *testing.T) {
	a, _ := sparse.NewCSRFromTriplets(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := Compute(a, DefaultOptions()); err == nil {
		t.Error("non-square accepted")
	}
}

func TestComputeRejectsIndefinite(t *testing.T) {
	a, _ := sparse.NewCSRFromTriplets(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 1}, // indefinite
	})
	if _, err := Compute(a, DefaultOptions()); err == nil {
		t.Error("indefinite matrix accepted")
	}
}

func TestVariantString(t *testing.T) {
	if VariantFSAI.String() != "FSAI" || VariantSp.String() != "FSAIE(sp)" || VariantFull.String() != "FSAIE(full)" {
		t.Error("variant names wrong")
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func TestFilterMonotonicity(t *testing.T) {
	// Larger filters keep fewer extension entries: nnz(G) must be
	// non-increasing in the filter value.
	a := matgen.Laplace2D(16, 16)
	prev := math.MaxInt
	for _, f := range []float64{0.0, 0.001, 0.01, 0.1, 0.5} {
		o := DefaultOptions()
		o.Variant = VariantSp
		o.Filter = f
		p, err := Compute(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if p.NNZ() > prev {
			t.Errorf("filter %g: nnz %d > previous %d", f, p.NNZ(), prev)
		}
		prev = p.NNZ()
	}
}

func TestFilterKeepsBasePattern(t *testing.T) {
	// Even an absurdly large filter never drops original pattern entries.
	a := matgen.Laplace2D(12, 12)
	o := DefaultOptions()
	o.Variant = VariantFull
	o.Filter = 1e6
	p, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if !p.BasePattern.SubsetOf(p.FinalPattern) {
		t.Error("filtering dropped base-pattern entries")
	}
}

func TestExtensionPct(t *testing.T) {
	a := matgen.Laplace2D(12, 12)
	o := DefaultOptions()
	o.Variant = VariantFSAI
	p, _ := Compute(a, o)
	if p.ExtensionPct() != 0 {
		t.Errorf("FSAI extension pct = %g, want 0", p.ExtensionPct())
	}
	o.Variant = VariantFull
	o.Filter = 0
	p, _ = Compute(a, o)
	if p.ExtensionPct() <= 0 {
		t.Errorf("unfiltered FSAIE extension pct = %g, want > 0", p.ExtensionPct())
	}
}

func TestApplyMatchesExplicitProducts(t *testing.T) {
	a := matgen.Laplace2D(10, 10)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	p.Apply(z, r)
	tmp := make([]float64, n)
	want := make([]float64, n)
	p.G.MulVec(tmp, r)
	p.GT.MulVec(want, tmp)
	for i := range z {
		if math.Abs(z[i]-want[i]) > 1e-14 {
			t.Fatalf("Apply mismatch at %d", i)
		}
	}
	// Parallel path matches too.
	z2 := make([]float64, n)
	p.ApplyBlock(kernels.New(n, 4), z2, r, make([]float64, n), 1)
	for i := range z {
		if math.Abs(z[i]-z2[i]) > 1e-14 {
			t.Fatalf("parallel Apply mismatch at %d", i)
		}
	}
}

func TestGTIsTransposeOfG(t *testing.T) {
	a := matgen.Wathen(5, 5, 4)
	o := DefaultOptions()
	p, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	gt := p.G.Transpose()
	if gt.NNZ() != p.GT.NNZ() {
		t.Fatal("GT nnz mismatch")
	}
	for k := range gt.Val {
		if gt.ColIdx[k] != p.GT.ColIdx[k] || gt.Val[k] != p.GT.Val[k] {
			t.Fatal("GT is not the transpose of G")
		}
	}
}

func TestStandardVsPrecalcFiltering(t *testing.T) {
	// Both strategies must produce working preconditioners; the precalc
	// strategy must never lose to the standard one by a large margin
	// (Table 3's claim, checked on a moderately hard matrix).
	a := matgen.JumpCoefficient2D(24, 24, 4, 1e3, 5)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	for _, filter := range []float64{0.01, 0.1} {
		var iters [2]int
		for mode := 0; mode < 2; mode++ {
			o := DefaultOptions()
			o.Variant = VariantSp
			o.Filter = filter
			o.StandardFiltering = mode == 1
			p, err := Compute(a, o)
			if err != nil {
				t.Fatal(err)
			}
			res := krylov.Solve(a, x, b, p, krylov.DefaultOptions())
			if !res.Converged {
				t.Fatalf("filter=%g mode=%d did not converge", filter, mode)
			}
			iters[mode] = res.Iterations
		}
		t.Logf("filter=%g: precalc=%d standard=%d iterations", filter, iters[0], iters[1])
		if iters[1] < iters[0]-2 {
			t.Errorf("filter=%g: standard filtering (%d) clearly beats precalc (%d); Table 3 claims the opposite",
				filter, iters[1], iters[0])
		}
	}
}

func TestWorkersProduceIdenticalG(t *testing.T) {
	a := matgen.Laplace2D(14, 14)
	o := DefaultOptions()
	o.Workers = 1
	p1, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	p4, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if p1.G.NNZ() != p4.G.NNZ() {
		t.Fatal("nnz differs across worker counts")
	}
	for k := range p1.G.Val {
		if p1.G.Val[k] != p4.G.Val[k] {
			t.Fatal("G values differ across worker counts")
		}
	}
}

func TestSetupStatsPopulated(t *testing.T) {
	a := matgen.Laplace2D(12, 12)
	o := DefaultOptions()
	o.Variant = VariantFull
	p, err := Compute(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.DirectFlops <= 0 || p.Stats.PrecalcFlops <= 0 || p.Stats.PatternOps <= 0 {
		t.Errorf("stats not populated: %+v", p.Stats)
	}
	if p.Stats.MaxLocal < 2 {
		t.Errorf("MaxLocal=%d", p.Stats.MaxLocal)
	}
	// The baseline does no precalculation.
	o.Variant = VariantFSAI
	pb, _ := Compute(a, o)
	if pb.Stats.PrecalcFlops != 0 {
		t.Errorf("baseline should not precalculate, got %g flops", pb.Stats.PrecalcFlops)
	}
	if pb.Stats.DirectFlops >= p.Stats.DirectFlops {
		t.Error("extended setup should cost more direct flops")
	}
}

func TestDefaultOptionsNormalization(t *testing.T) {
	// Zero-valued options get sane defaults via normalize (exercised
	// through Compute).
	a := laplace1D(8)
	p, err := Compute(a, Options{Variant: VariantFull, Filter: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if p.G == nil || p.GT == nil {
		t.Fatal("nil factors")
	}
}
