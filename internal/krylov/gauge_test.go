package krylov_test

import (
	"testing"

	fsai "repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// TestKernelGaugesMatchWhatRan: a 2-worker FSAIE solve below
// kernels.ParallelMinLen rows runs every sweep — the A-product, both
// factor products and BLAS-1 — serially, so it reports no plan imbalance
// and no pool dispatch; a solve above the threshold reports the A plan's
// imbalance and its pooled dispatches. wathen20x20's 2-way plan is 0.11%
// imbalanced, so a gauge that read the unused plan would show there.
func TestKernelGaugesMatchWhatRan(t *testing.T) {
	const workers = 2
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"lap64x64", nil},
		{"wathen20x20", nil},
		{"grid182x182", matgen.Laplace2D(182, 182).AddDiag(0.05)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if a == nil {
				spec, _ := matgen.ByName(tc.name)
				a = spec.Generate()
			}
			o := fsai.DefaultOptions()
			o.Workers = workers
			p, err := fsai.Compute(a, o)
			if err != nil {
				t.Fatal(err)
			}
			b, x := make([]float64, a.Rows), make([]float64, a.Rows)
			for i := range b {
				b[i] = 1
			}
			reg := telemetry.NewRegistry()
			res := krylov.Solve(a, x, b, p, krylov.Options{Tol: 1e-8, MaxIter: 2000, Workers: workers, Metrics: reg})
			if !res.Converged {
				t.Fatalf("solve did not converge: %+v", res)
			}
			imb := reg.Gauge("kernels.spmv.imbalance_pct").Value()
			dispatches := reg.Counter("kernels.pool.dispatches").Value()
			if a.Rows < kernels.ParallelMinLen() {
				if imb != 0 || dispatches != 0 {
					t.Fatalf("serial-sized solve reports imbalance %v%% and %d dispatches, want 0 and 0", imb, dispatches)
				}
				return
			}
			if want := a.PartitionPlan(workers).ImbalancePct; imb != want || dispatches == 0 {
				t.Fatalf("pooled solve reports imbalance %v%% (plan: %v%%) and %d dispatches", imb, want, dispatches)
			}
		})
	}
}
