package fsai

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/krylov"
	"repro/internal/matgen"
)

func benchSetup(b *testing.B, variant Variant, lineBytes int) {
	a := matgen.Laplace2D(48, 48)
	opts := DefaultOptions()
	opts.Variant = variant
	opts.LineBytes = lineBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSetupAllocsIndependentOfRows checks that no setup phase allocates per
// row: FSAIE(full) on a grid with 4× the rows may allocate at most 1.25× as
// often, on one worker and on two, where the row-chunked phases allocate
// per chunk. Per-row CG vectors or a per-row copy of the local block in
// SolveSPD would scale with rows (16,478 and 64,906 allocations).
func TestSetupAllocsIndependentOfRows(t *testing.T) {
	for _, w := range []int{1, 2} {
		allocs := func(nx int) float64 {
			a := matgen.Laplace2D(nx, nx)
			o := DefaultOptions()
			o.Workers = w
			return testing.AllocsPerRun(3, func() {
				if _, err := Compute(a, o); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(48), allocs(96)
		t.Logf("%d workers: allocations: %v on 48×48, %v on 96×96", w, small, large)
		if large >= 1.25*small {
			t.Errorf("%d workers: setup allocations grow with rows: %v on 48×48, %v on 96×96", w, small, large)
		}
	}
}

// BenchmarkSetupWorkers reproduces the per-phase setup table of
// docs/performance.md at a smaller size: FSAIE(full) on Laplace3D(32,32,32)
// at 1 and 2 workers, with each phase's mean wall time per setup reported
// in ms (unphased-ms is the rest of the setup: the Gᵀ transpose and the
// Apply scratch).
func BenchmarkSetupWorkers(b *testing.B) {
	a := matgen.Laplace3D(32, 32, 32)
	phases := []string{PhaseBasePattern, PhaseExtend, PhasePrecalc, PhaseFilter, PhaseSolve}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			o := DefaultOptions()
			o.Workers = w
			ns := make(map[string]int64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				p, err := Compute(a, o)
				wall := time.Since(t0).Nanoseconds()
				if err != nil {
					b.Fatal(err)
				}
				for _, ph := range phases {
					ns[ph] += p.Stats.PhaseNS(ph)
				}
				ns["unphased"] += wall - p.Stats.TotalPhaseNS()
			}
			perOp := func(v int64) float64 { return float64(v) / 1e6 / float64(b.N) }
			for _, ph := range phases {
				b.ReportMetric(perOp(ns[ph]), ph+"-ms")
			}
			b.ReportMetric(perOp(ns["unphased"]), "unphased-ms")
		})
	}
}

func BenchmarkSetupFSAI(b *testing.B)         { benchSetup(b, VariantFSAI, 64) }
func BenchmarkSetupFSAIESp(b *testing.B)      { benchSetup(b, VariantSp, 64) }
func BenchmarkSetupFSAIEFull(b *testing.B)    { benchSetup(b, VariantFull, 64) }
func BenchmarkSetupFSAIEFull256(b *testing.B) { benchSetup(b, VariantFull, 256) }

func BenchmarkExtendPattern(b *testing.B) {
	a := matgen.Laplace2D(64, 64)
	base := InitialPattern(a, 0, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtendPattern(base, 8, 0, ClipLower, 0, 1)
	}
	b.ReportMetric(float64(base.NNZ()), "base_nnz")
}

func BenchmarkPrecondApply(b *testing.B) {
	a := matgen.Laplace2D(64, 64)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(z, r)
	}
	b.SetBytes(int64(2 * p.NNZ() * 12))
}

func BenchmarkPCGSolve(b *testing.B) {
	a := matgen.Laplace2D(48, 48)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := krylov.Solve(a, x, rhs, p, krylov.DefaultOptions())
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}
