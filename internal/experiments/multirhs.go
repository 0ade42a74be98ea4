package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/telemetry"
)

// The multi-RHS campaign measures what batching buys: solving the same
// operator for k right-hand sides as k scalar PCG solves back to back
// versus one k-column block solve. The block solve streams each sparse
// operand (A, G, Gᵀ) once per sweep for all k columns, so its per-RHS wall
// time should drop well below the scalar baseline on memory-bound
// problems; the decoupled recurrence keeps every column bit-identical to
// its scalar solve, which the campaign verifies rather than assumes.

// MultiRHSOptions configures one multi-RHS amortization measurement.
// Zero-valued fields use the solver defaults.
type MultiRHSOptions struct {
	Tol     float64
	MaxIter int
	Workers int
	Metrics *telemetry.Registry
	Ctx     context.Context
}

// MultiRHSResult is one matrix's amortization measurement: the scalar
// baseline (k sequential solves) against the k-column block solve over the
// same FSAI factor and the same right-hand sides.
type MultiRHSResult struct {
	Spec matgen.Spec
	Rows int
	NNZ  int
	NNZG int
	K    int

	SetupWallNS int64
	// ScalarWallNS is the wall time of the K scalar solves back to back;
	// BlockWallNS the single K-column block solve over the same factor.
	ScalarWallNS int64
	BlockWallNS  int64
	// ScalarIters is the largest per-column iteration count of the scalar
	// solves; BlockSweeps the block iterations executed (max over columns —
	// deflation lets finished columns stop consuming sweeps).
	ScalarIters int
	BlockSweeps int
	Converged   bool
	// BitIdentical reports whether every block column matched its scalar
	// solution bitwise — the decoupled recurrence's guarantee.
	BitIdentical bool
	// Timing is the block solve's kernel-class breakdown.
	Timing krylov.Timing
}

// PerRHSScalarNS is the scalar baseline's per-right-hand-side wall time.
func (r *MultiRHSResult) PerRHSScalarNS() int64 { return r.ScalarWallNS / int64(r.K) }

// PerRHSBlockNS is the block solve's amortized per-right-hand-side wall time.
func (r *MultiRHSResult) PerRHSBlockNS() int64 { return r.BlockWallNS / int64(r.K) }

// Speedup is the per-RHS amortization factor (scalar / block; >1 is a win).
func (r *MultiRHSResult) Speedup() float64 {
	if r.BlockWallNS == 0 {
		return 0
	}
	return float64(r.ScalarWallNS) / float64(r.BlockWallNS)
}

// RunMultiRHS measures spec with k right-hand sides: FSAI setup once, k
// scalar solves, then one k-column block solve, and a bitwise comparison of
// the two solution sets.
func RunMultiRHS(spec matgen.Spec, k int, opt MultiRHSOptions) (*MultiRHSResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("multirhs: k must be >= 1, got %d", k)
	}
	a := spec.Generate()
	n := a.Rows
	base := spec.RHS(a)

	fopt := fsai.DefaultOptions()
	if opt.Workers > 0 {
		fopt.Workers = opt.Workers
	}
	t0 := time.Now()
	p, err := fsai.Compute(a, fopt)
	if err != nil {
		return nil, fmt.Errorf("multirhs %s: setup: %w", spec.Name, err)
	}
	setupWall := time.Since(t0)

	// k deterministic right-hand sides: the suite RHS plus small
	// column-dependent perturbations, so columns converge at slightly
	// different iterations and the block solve exercises deflation the way
	// real batches do.
	bblk := make([]float64, n*k)
	for j := 0; j < k; j++ {
		col := bblk[j*n : (j+1)*n]
		copy(col, base)
		for i := 0; i < n; i += 17 {
			col[i] += 0.01 * float64(j)
		}
	}

	kopt := krylov.Options{
		Tol: opt.Tol, MaxIter: opt.MaxIter, Workers: opt.Workers,
		CollectTiming: true, Metrics: opt.Metrics, Ctx: opt.Ctx,
	}
	xs := make([]float64, n*k)
	res := &MultiRHSResult{
		Spec: spec, Rows: n, NNZ: a.NNZ(), NNZG: p.NNZ(), K: k,
		SetupWallNS: setupWall.Nanoseconds(), Converged: true,
	}
	t0 = time.Now()
	for j := 0; j < k; j++ {
		sr := krylov.Solve(a, xs[j*n:(j+1)*n], bblk[j*n:(j+1)*n], p, kopt)
		if sr.Status == krylov.StatusCancelled {
			return nil, fmt.Errorf("multirhs %s: scalar solve cancelled: %w",
				spec.Name, context.Cause(opt.Ctx))
		}
		if sr.Iterations > res.ScalarIters {
			res.ScalarIters = sr.Iterations
		}
		res.Converged = res.Converged && sr.Converged
	}
	res.ScalarWallNS = time.Since(t0).Nanoseconds()

	xb := make([]float64, n*k)
	t0 = time.Now()
	br := krylov.SolveBlock(a, xb, bblk, k, p, kopt)
	res.BlockWallNS = time.Since(t0).Nanoseconds()
	for _, c := range br.Columns {
		if c.Status == krylov.StatusCancelled {
			return nil, fmt.Errorf("multirhs %s: block solve cancelled: %w",
				spec.Name, context.Cause(opt.Ctx))
		}
	}
	res.BlockSweeps = br.Iterations
	res.Converged = res.Converged && br.AllConverged
	res.Timing = br.Timing
	res.BitIdentical = true
	for i := range xb {
		if xb[i] != xs[i] {
			res.BitIdentical = false
			break
		}
	}
	return res, nil
}

// MultiRHSTable renders the campaign as an aligned text table: per matrix,
// the scalar and block per-RHS wall times, the amortization factor, and
// whether the block columns reproduced the scalar solutions bitwise.
func MultiRHSTable(rs []*MultiRHSResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-RHS amortization (k scalar solves vs one k-column block solve)\n")
	fmt.Fprintf(&b, "%-22s %8s %9s %4s %6s %6s %12s %12s %8s %8s\n",
		"matrix", "rows", "nnz", "k", "iters", "sweeps", "scalar/rhs", "block/rhs", "speedup", "bitwise")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-22s %8d %9d %4d %6d %6d %10.3fms %10.3fms %7.2fx %8v\n",
			r.Spec.Name, r.Rows, r.NNZ, r.K, r.ScalarIters, r.BlockSweeps,
			float64(r.PerRHSScalarNS())/1e6, float64(r.PerRHSBlockNS())/1e6,
			r.Speedup(), r.BitIdentical)
	}
	return b.String()
}

// ReportEntries converts the measurement into two run entries — the scalar
// baseline and the block solve — told apart by their variants.
func (r *MultiRHSResult) ReportEntries() []RunEntry {
	scalar := RunEntry{
		MatrixID: r.Spec.ID, Matrix: r.Spec.Name, Type: r.Spec.Type,
		Rows: r.Rows, NNZ: r.NNZ, NNZG: r.NNZG,
		Variant:    fmt.Sprintf("pcg[nrhs=%d]", r.K),
		Iterations: r.ScalarIters, Converged: r.Converged,
		SetupWallNS: r.SetupWallNS, SolveWallNS: r.ScalarWallNS,
		NRHS: r.K,
	}
	block := RunEntry{
		MatrixID: r.Spec.ID, Matrix: r.Spec.Name, Type: r.Spec.Type,
		Rows: r.Rows, NNZ: r.NNZ, NNZG: r.NNZG,
		Variant:    fmt.Sprintf("block-pcg[nrhs=%d]", r.K),
		Iterations: r.BlockSweeps, Converged: r.Converged,
		SetupWallNS: r.SetupWallNS, SolveWallNS: r.BlockWallNS,
		NRHS:   r.K,
		Timing: RunTimingOf(r.Timing),
	}
	return []RunEntry{scalar, block}
}

// MultiRHSReport assembles the run report of an -nrhs campaign: two entries
// per matrix (scalar baseline, block solve) and the metrics registry
// snapshot.
func MultiRHSReport(rs []*MultiRHSResult, tool, machine string, reg *telemetry.Registry) *RunReport {
	r := &RunReport{Schema: RunReportSchemaVersion, Tool: tool, Machine: machine}
	for _, m := range rs {
		r.Entries = append(r.Entries, m.ReportEntries()...)
	}
	if reg != nil {
		snap := reg.Snapshot()
		r.Metrics = &snap
	}
	return r
}
