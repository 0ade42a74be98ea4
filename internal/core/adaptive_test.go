package fsai

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// adaptiveFSAI is the FSAI factor on an adaptive base of at most maxPerRow
// entries per row grown to residual tolerance tol (Compute's adaptive base
// uses adaptiveTol).
func adaptiveFSAI(t *testing.T, a *sparse.CSR, maxPerRow int, tol float64) *Preconditioner {
	t.Helper()
	base, err := adaptivePattern(a, maxPerRow, tol, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ComputeOnPattern(a, base, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return FromFactors(g, base, SetupStats{}, 0)
}

func TestAdaptivePatternsAreLowerTriangularWithDiagonal(t *testing.T) {
	a := matgen.Laplace2D(12, 12)
	p, err := adaptivePattern(a, 8, 0.05, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		row := p.Row(i)
		if len(row) == 0 || row[len(row)-1] != i {
			t.Fatalf("row %d: diagonal not last: %v", i, row)
		}
		for _, j := range row {
			if j > i {
				t.Fatalf("row %d: entry above diagonal: %v", i, row)
			}
		}
		if len(row) > 8 {
			t.Fatalf("row %d exceeds budget: %d", i, len(row))
		}
	}
}

func TestAdaptiveBeatsStaticAtSameBudget(t *testing.T) {
	// On an anisotropic problem, an adaptively grown pattern of ~k entries
	// per row should beat (or at least match) the static lower(A) pattern,
	// which has at most 3-5 entries per row, and approach the quality of
	// much denser static patterns.
	a := matgen.Anisotropic2D(32, 32, 0.01)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	static, err := Compute(a, Options{Variant: VariantFSAI, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	resStatic := krylov.Solve(a, x, b, static, krylov.DefaultOptions())

	adapt := adaptiveFSAI(t, a, 8, 0.01)
	resAdapt := krylov.Solve(a, x, b, adapt, krylov.DefaultOptions())
	t.Logf("static: %d iters (nnz %d); adaptive: %d iters (nnz %d)",
		resStatic.Iterations, static.NNZ(), resAdapt.Iterations, adapt.NNZ())
	if !resAdapt.Converged {
		t.Fatal("adaptive did not converge")
	}
	if resAdapt.Iterations > resStatic.Iterations {
		t.Errorf("adaptive (%d) should not lose to static lower(A) (%d)",
			resAdapt.Iterations, resStatic.Iterations)
	}
}

func TestAdaptiveCacheExtensionComposes(t *testing.T) {
	// Section 8's claim: the cache-friendly extension improves *any*
	// pattern strategy. Extending the adaptive pattern must not hurt
	// iterations and must keep the adaptive entries.
	a := matgen.JumpCoefficient2D(32, 32, 4, 1e3, 3)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)

	plainOpts := Options{Variant: VariantFSAI, AdaptiveMaxPerRow: 8}
	p1, err := Compute(a, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	r1 := krylov.Solve(a, x, b, p1, krylov.DefaultOptions())

	extOpts := plainOpts
	extOpts.Variant = VariantSp
	extOpts.Filter = 0.01
	p2, err := Compute(a, extOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2 := krylov.Solve(a, x, b, p2, krylov.DefaultOptions())

	t.Logf("adaptive: %d iters (nnz %d); +cache extension: %d iters (nnz %d)",
		r1.Iterations, p1.NNZ(), r2.Iterations, p2.NNZ())
	if !p1.BasePattern.Equal(p2.BasePattern) {
		t.Error("the extended setup grew another adaptive base")
	}
	if !p1.BasePattern.SubsetOf(p2.FinalPattern) {
		t.Error("extension lost adaptive entries")
	}
	if p2.NNZ() <= p1.NNZ() {
		t.Error("extension added nothing")
	}
	if r2.Iterations > r1.Iterations {
		t.Errorf("extension hurt iterations: %d -> %d", r1.Iterations, r2.Iterations)
	}
}

func TestAdaptiveTolStopsGrowth(t *testing.T) {
	// A very loose tolerance keeps patterns near-diagonal; a tight one
	// grows them toward the budget.
	a := matgen.Laplace2D(10, 10)
	loose, err := adaptivePattern(a, 10, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := adaptivePattern(a, 10, 1e-4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loose.NNZ() >= tight.NNZ() {
		t.Errorf("loose tol nnz %d should be < tight tol nnz %d", loose.NNZ(), tight.NNZ())
	}
	if loose.NNZ() != a.Rows {
		t.Errorf("tol=10 should keep diagonal-only patterns, nnz=%d", loose.NNZ())
	}
}

func TestAdaptiveErrors(t *testing.T) {
	rect := matgen.Laplace2D(3, 3)
	rect.Cols++ // corrupt shape
	if _, err := Compute(rect, Options{AdaptiveMaxPerRow: 12}); err == nil {
		t.Error("non-square accepted")
	}
}

// TestAdaptiveNotSPDRowIsTyped: a row whose search meets an indefinite local
// system fails the setup with a ReasonNotSPD SetupError naming that row.
func TestAdaptiveNotSPDRowIsTyped(t *testing.T) {
	// A negative diagonal entry makes row 7's first local system, the 1×1
	// A(7,7), indefinite; the rows before it never admit column 7.
	a := laplace1D(20)
	for k := a.RowPtr[7]; k < a.RowPtr[8]; k++ {
		if a.ColIdx[k] == 7 {
			a.Val[k] = -3
		}
	}
	for _, w := range []int{1, 2} {
		_, err := ComputeNamed("adaptive", a, Options{Workers: w})
		se, ok := AsSetupError(err)
		if !ok || se.Reason != ReasonNotSPD || se.Row != 7 {
			t.Fatalf("workers %d: err = %v, want a not-spd SetupError at row 7", w, err)
		}
		if !errors.Is(err, ErrNotSPD) {
			t.Errorf("workers %d: SetupError should wrap ErrNotSPD", w)
		}
	}
}

// TestAdaptiveSetupPhases: an adaptive FSAIE(sp) setup is accounted like
// every other setup — its search is the base-pattern phase, and each phase
// is both a Stats.Phases entry and a tracer span under the setup's root.
func TestAdaptiveSetupPhases(t *testing.T) {
	a := matgen.Laplace2D(16, 16)
	tr := telemetry.NewTracer(nil)
	o := DefaultOptions()
	o.Tracer = tr
	p, err := ComputeNamed("adaptive", a, o)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ph := range p.Stats.Phases {
		names = append(names, ph.Name)
	}
	want := []string{PhaseBasePattern, PhaseExtend, PhasePrecalc, PhaseFilter, PhaseSolve}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Stats.Phases = %v, want %v", names, want)
	}
	report := tr.Report()
	if len(report) != 1 || !strings.Contains(report[0].Name, "FSAIE(sp)") {
		t.Fatalf("root spans %+v, want one FSAIE(sp) setup", report)
	}
	var spans []string
	for _, c := range report[0].Children {
		spans = append(spans, c.Name)
	}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Errorf("setup span children = %v, want %v", spans, want)
	}
}

// TestAdaptiveGoldenFactors pins the exact G (structure and value bits) of
// the "adaptive" preconditioner on three suite matrices at filters 0, 0.01
// and 0.1 and at 1 and 2 workers. Every value was recorded from the
// separate adaptive setup that Compute's adaptive base replaced.
func TestAdaptiveGoldenFactors(t *testing.T) {
	cases := []struct {
		matrix string
		filter float64
		nnz    int
		sha    string
	}{
		{"lap64x64", 0, 142224, "8583c413eca0ff77ca4b040313b80791a7004f0c940999f06e7c6616ccaddb99"},
		{"lap64x64", 0.01, 106603, "cb78c8bfd0007ad541090a6cee9d55af2637bd3c1225236ebb8568f958316362"},
		{"lap64x64", 0.1, 48611, "9f007b91c811ef22f9a5c946bf37065810eff1a5b6f6aa068a2202afa982da18"},
		{"elas28x28-s100", 0, 62952, "a02316dc239905f6524a62b2830d56176a69c04724c6e2dca2f8c7322fdefc86"},
		{"elas28x28-s100", 0.01, 26444, "afb8321d4aca9958d395f9dffe050e8f2ccb680a17f04942db7715c55d87c4d0"},
		{"elas28x28-s100", 0.1, 18469, "d52303d2e62e580deec5ed64886b75efb54e5efae9425085c50170014b987914"},
		{"circuit500-d5", 0, 25642, "90d7ca66b89ed22a64b45045596a3dd9d51819eee396fa0eff454448b68950cc"},
		{"circuit500-d5", 0.01, 7481, "eba34b0272e68f8603a324bd23c3f6d41a1836d2673608dd3da7eff2dc7a0b17"},
		{"circuit500-d5", 0.1, 5306, "1434c58fbfb9e8cb2a5a64578181171227f5fd681ab472a6ae007df4d8637576"},
	}
	for _, c := range cases {
		a := suiteMatrix(t, c.matrix)
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/f=%g/w=%d", c.matrix, c.filter, w), func(t *testing.T) {
				o := DefaultOptions()
				o.Filter, o.Workers = c.filter, w
				p, err := ComputeNamed("adaptive", a, o)
				if err != nil {
					t.Fatal(err)
				}
				if nnz, sha := p.NNZ(), csrSHA(p.G); nnz != c.nnz || sha != c.sha {
					t.Errorf("nnz, G = %d, %s; want %d, %s", nnz, sha, c.nnz, c.sha)
				}
			})
		}
	}
}

// TestAdaptiveDirectFlopsIncludeSearch: an adaptive setup's DirectFlops is
// the search's dense solves plus the final solve's, not the final solve's
// alone.
func TestAdaptiveDirectFlopsIncludeSearch(t *testing.T) {
	a := suiteMatrix(t, "lap64x64")
	o := DefaultOptions()
	p, err := ComputeNamed("adaptive", a, o)
	if err != nil {
		t.Fatal(err)
	}
	var search, final SetupStats
	if _, err := adaptivePattern(a, families["adaptive"].maxPerRow, adaptiveTol, 1, &search); err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeOnPattern(a, p.FinalPattern, 1, &final); err != nil {
		t.Fatal(err)
	}
	if search.DirectFlops <= 0 {
		t.Fatalf("the search counted %v direct flops", search.DirectFlops)
	}
	if want := search.DirectFlops + final.DirectFlops; p.Stats.DirectFlops != want {
		t.Fatalf("adaptive DirectFlops = %v, want search %v + final solve %v = %v",
			p.Stats.DirectFlops, search.DirectFlops, final.DirectFlops, want)
	}
}
