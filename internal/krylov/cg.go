package krylov

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Preconditioner applies an approximate inverse: z = M r with M ≈ A⁻¹.
// Implementations must treat z and r as distinct, caller-owned buffers.
type Preconditioner interface {
	Apply(z, r []float64)
}

// BlockPreconditioner is a Preconditioner that can apply itself to a
// column-major block of k residuals in one batched pass. SolveBlock uses it
// when available; otherwise it falls back to column-wise Apply (which is
// arithmetically identical, just without the batched matrix traffic).
//
// ApplyBlock runs its sweeps on e, the solve's engine, so one worker count
// (Options.Workers) drives every sweep of an iteration and the pooled
// dispatches carry the solve's pprof labels. tmp is a scratch block of
// len(z) values that the solve owns. ApplyBlock writes to nothing else, so
// one preconditioner can serve any number of concurrent solves.
type BlockPreconditioner interface {
	Preconditioner
	ApplyBlock(e *kernels.Engine, z, r, tmp []float64, k int)
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is the diagonal (point Jacobi) preconditioner z_i = r_i / a_ii.
type Jacobi struct {
	InvDiag []float64
	// NegDiag counts diagonal entries that were negative and got the
	// magnitude fallback 1/|a_ii|; ZeroDiag counts exact zeros that fell
	// back to 1. Either is a red flag for an SPD solve — publish them with
	// PublishWarnings so the telemetry surface sees the repair.
	NegDiag, ZeroDiag int
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of A. A negative
// diagonal entry would flip the sign of z and destroy the PCG inner-product
// structure, so it falls back to 1/|a_ii|; zero entries fall back to 1 (no
// scaling). Both repairs are counted on the returned preconditioner.
func NewJacobi(a *sparse.CSR) *Jacobi {
	d := a.Diag()
	inv := make([]float64, len(d))
	j := &Jacobi{InvDiag: inv}
	for i, v := range d {
		switch {
		case v > 0:
			inv[i] = 1 / v
		case v < 0:
			inv[i] = 1 / -v
			j.NegDiag++
		default:
			inv[i] = 1
			j.ZeroDiag++
		}
	}
	return j
}

// PublishWarnings records the diagonal repairs in reg as warning counters
// ("krylov.jacobi.neg_diag_fixed", "krylov.jacobi.zero_diag_fixed").
// Nil-safe on both receiver and registry.
func (j *Jacobi) PublishWarnings(reg *telemetry.Registry) {
	if j == nil || reg == nil {
		return
	}
	if j.NegDiag > 0 {
		reg.Counter("krylov.jacobi.neg_diag_fixed").Add(int64(j.NegDiag))
	}
	if j.ZeroDiag > 0 {
		reg.Counter("krylov.jacobi.zero_diag_fixed").Add(int64(j.ZeroDiag))
	}
}

// Apply computes z = D⁻¹ r.
func (j *Jacobi) Apply(z, r []float64) {
	for i := range r {
		z[i] = r[i] * j.InvDiag[i]
	}
}

// Options configures a CG/PCG solve (Solve) or block solve (SolveBlock).
type Options struct {
	// Tol is the convergence threshold on ||r_k||₂ / ||r₀||₂. The paper
	// uses 1e-8 (initial residual reduced by eight orders of magnitude).
	Tol float64
	// MaxIter caps the iteration count; the paper excludes matrices that
	// need more than 10000 FSAI-preconditioned iterations. With Resume the
	// cap applies to the total (resumed-from plus new) iteration count.
	MaxIter int
	// Workers sets the SpMV parallelism (<=0: all CPUs, 1: serial).
	Workers int
	// RecordHistory stores ||r_k||/||r₀|| per iteration in each column's
	// Result.History, for the iterations the column was active.
	RecordHistory bool
	// ProgressDetail, when non-nil, is called after every completed
	// iteration with the 1-based iteration number, the current relative
	// residual (for a block: the worst over the columns that completed the
	// iteration) and the running kernel-class timing breakdown (populated
	// when CollectTiming is set, zero otherwise). Every column that ends in
	// a breakdown, stagnation or cancellation gets one final snapshot with
	// Status set, so stream watchers never see a solve vanish mid-flight.
	// It runs on the solver goroutine; keep it cheap. This is the hook live
	// observability (obs.SolveWatcher) plugs into.
	ProgressDetail func(ProgressInfo)
	// CollectTiming enables the per-iteration wall-clock breakdown (SpMV
	// vs. preconditioner-apply vs. BLAS-1) returned in Result.Timing. Off
	// by default so the inner loop carries no clock calls.
	CollectTiming bool
	// Metrics, when non-nil, receives the "kernels.pool.dispatches" and
	// "kernels.spmv.imbalance_pct" kernel attribution and, with
	// CollectTiming, per-iteration timing histograms
	// ("krylov.iter.spmv_ns", "krylov.iter.precond_ns",
	// "krylov.iter.blas1_ns") and the "krylov.iterations" counter.
	Metrics *telemetry.Registry

	// Ctx, when non-nil, cancels the solve cooperatively: it is checked
	// every CancelCheckEvery iterations and on cancellation every remaining
	// column returns StatusCancelled with a resumable Result.Checkpoint.
	Ctx context.Context
	// CancelCheckEvery is the Ctx poll interval in iterations (default 32).
	CancelCheckEvery int
	// ColumnCtx, when non-nil (length k, nil entries allowed), cancels
	// individual columns of a block solve: a column whose context expires —
	// a batched job's client deadline — deflates out of the block with
	// StatusCancelled and a resumable checkpoint, while the remaining
	// columns keep iterating.
	ColumnCtx []context.Context
	// Resume, when non-nil, continues a previous solve instead of starting
	// from x = 0: a full checkpoint (P set) restores the exact recurrence;
	// a warm checkpoint (P nil) restarts from the saved iterate with a
	// fresh search direction (residual recomputed when R is nil). One
	// column only: SolveBlock panics on Resume with k > 1.
	Resume *Checkpoint
	// StagnationWindow, when > 0, ends a column with StatusStagnation after
	// that many consecutive iterations without a relative-residual
	// improvement of at least StagnationRelImprovement. Off by default: a
	// plain CG plateau can recover, so only recovery-aware callers (the
	// resilience layer) should arm it.
	StagnationWindow int
}

// StagnationRelImprovement is the minimum relative residual decrease that
// counts as progress for the stagnation guard: rel < best*(1-this).
const StagnationRelImprovement = 1e-3

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{Tol: 1e-8, MaxIter: 10000, Workers: 1}
}

// Timing is the wall-clock breakdown of a solve, split by the three kernel
// classes of the Section 2.1 loop. Populated when Options.CollectTiming is
// set; all fields zero otherwise.
type Timing struct {
	SpMV    time.Duration // y = Ap products
	Precond time.Duration // z = M r applications (for FSAI: two more SpMVs)
	BLAS1   time.Duration // dot products, AXPYs, norms
	Total   time.Duration // whole Solve call
}

// ProgressInfo is the per-iteration snapshot passed to
// Options.ProgressDetail.
type ProgressInfo struct {
	// Iteration is the 1-based completed iteration count.
	Iteration int
	// RelRes is the current relative residual ||r_k||/||r₀||.
	RelRes float64
	// Converged reports whether this iteration reached the tolerance.
	Converged bool
	// Status is StatusUnknown for ordinary mid-flight snapshots and the
	// terminal status on the final snapshot of a breakdown or cancellation.
	Status Status
	// Timing is the running kernel-class breakdown (Total included) when
	// Options.CollectTiming is set; the zero value otherwise.
	Timing Timing
}

// Result reports the outcome of a CG/PCG solve (one column of a block).
type Result struct {
	Iterations  int
	Converged   bool
	Status      Status    // typed termination diagnosis
	RelResidual float64   // final ||r||/||r₀||
	History     []float64 // per-iteration relative residuals if recorded
	Timing      Timing    // kernel-class breakdown if CollectTiming was set
	// Checkpoint is a resumable snapshot on non-converged termination:
	// a full checkpoint on cancellation and max-iter exhaustion (callers
	// can grant more budget and continue), a warm (iterate-only)
	// checkpoint on breakdown — the iterate is worth keeping, the
	// direction is not. Nil on convergence.
	Checkpoint *Checkpoint
}

// BlockResult reports the outcome of a block solve.
type BlockResult struct {
	// Columns holds one Result per right-hand side, in input order:
	// iterations the column was active, its typed status, final relative
	// residual, optional history, a checkpoint on non-converged
	// termination, and the whole solve's Timing.
	Columns []Result
	// Iterations is the number of block iterations executed (the max over
	// columns).
	Iterations int
	// Timing is the kernel-class breakdown of the whole block solve when
	// CollectTiming is set.
	Timing Timing
	// AllConverged reports whether every column converged.
	AllConverged bool
}

// Solve runs preconditioned conjugate gradient on A x = b with the given
// preconditioner (nil or Identity{} for plain CG), starting from x = 0
// (or from Options.Resume). The solution overwrites x, which must have
// length A.Rows. It is the one-column block solve.
func Solve(a *sparse.CSR, x, b []float64, m Preconditioner, opt Options) Result {
	return SolveBlock(a, x, b, 1, m, opt).Columns[0]
}

// SolveBlock runs preconditioned CG on A X = B for k column-major
// right-hand sides (column j of B is b[j*n:(j+1)*n]), starting from X = 0.
// The solutions overwrite x (same layout).
//
// Every iteration is the standard PCG recurrence of Section 2.1: one sweep
// of A (an SpMM serving all active columns), one preconditioner
// application (for FSAI, two more sweeps), two dot products and three
// AXPY-class updates per column. Each column keeps its own scalar α/β
// recurrence — only the sparse sweeps are batched — so column j executes
// exactly the kernel sequence of a one-column solve and its result is
// bit-identical to Solve on b_j. The service batcher relies on that.
//
// On top of the recurrence sit the robustness guards, all per column:
// indefinite-curvature and NaN/Inf detection, optional stagnation
// detection, and cooperative cancellation (Ctx for the whole block,
// ColumnCtx per column). A column that finishes — converged, broken down,
// stagnated or cancelled — deflates out of the active block and stops
// consuming sweeps without poisoning the rest. Every column reports a
// typed Result.Status.
//
// When Options.Ctx is set, the whole loop runs under the pprof label
// phase=cg merged into the context's existing labels (the service adds
// job_id/trace_id/fingerprint), so captured CPU profile windows attribute
// solver samples to the owning job — including on the pooled kernel
// workers, which adopt the labels per dispatch.
func SolveBlock(a *sparse.CSR, x, b []float64, k int, m Preconditioner, opt Options) BlockResult {
	if k < 1 || len(x) != k*a.Rows || len(b) != k*a.Rows ||
		(opt.ColumnCtx != nil && len(opt.ColumnCtx) != k) {
		panic("krylov: SolveBlock dimensions")
	}
	if opt.Resume != nil && k > 1 {
		panic("krylov: SolveBlock Resume needs k == 1")
	}
	if opt.Ctx == nil {
		return solveBlock(a, x, b, k, m, opt)
	}
	var res BlockResult
	prof.WithPhase(opt.Ctx, prof.PhaseCG, func(ctx context.Context) {
		o := opt
		o.Ctx = ctx
		res = solveBlock(a, x, b, k, m, o)
	})
	return res
}

func solveBlock(a *sparse.CSR, x, b []float64, k int, m Preconditioner, opt Options) BlockResult {
	n := a.Rows
	if m == nil {
		m = Identity{}
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10000
	}
	if opt.Workers <= 0 {
		// Resolve "all CPUs" once here rather than deferring the <=0
		// convention to every kernel call.
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.CancelCheckEvery <= 0 {
		opt.CancelCheckEvery = 32
	}
	collect := opt.CollectTiming
	var hSpMV, hPrecond, hBlas1 *telemetry.Histogram
	var iterCtr *telemetry.Counter
	if collect && opt.Metrics != nil {
		opt.Metrics.SetHelp("krylov_iter_spmv_ns", "per-iteration SpMV wall time")
		opt.Metrics.SetHelp("krylov_iter_precond_ns", "per-iteration preconditioner-apply wall time")
		opt.Metrics.SetHelp("krylov_iter_blas1_ns", "per-iteration BLAS-1 (dot/AXPY/norm) wall time")
		opt.Metrics.SetHelp("krylov_iterations", "completed CG/PCG iterations (summed over block columns)")
		buckets := telemetry.ExpBuckets(100, 10, 8) // 100 ns … 1 s per section
		hSpMV = opt.Metrics.Histogram("krylov.iter.spmv_ns", buckets)
		hPrecond = opt.Metrics.Histogram("krylov.iter.precond_ns", buckets)
		hBlas1 = opt.Metrics.Histogram("krylov.iter.blas1_ns", buckets)
		iterCtr = opt.Metrics.Counter("krylov.iterations")
	}
	// Kernel-layer attribution: the partition plan's residual SpMV load
	// imbalance and, at the end of the solve, how many pooled dispatches the
	// solve issued. Both land in the run report / Prometheus surface. The
	// imbalance is 0 when the A-sweep runs serially, by the kernel's own
	// size rule, so the gauge reports the plan only when it is used.
	var dispatches0 int64
	if opt.Metrics != nil {
		opt.Metrics.SetHelp("kernels_pool_dispatches", "parallel-pool task dispatches issued by solves")
		opt.Metrics.SetHelp("kernels_spmv_imbalance_pct", "residual nnz load imbalance of the SpMV partition plan")
		dispatches0 = kernels.PoolDispatches()
		imb := 0.0
		if kernels.Pooled(opt.Workers, n*k) {
			imb = a.PartitionPlan(opt.Workers).ImbalancePct
		}
		opt.Metrics.Gauge("kernels.spmv.imbalance_pct").Set(imb)
	}
	// One engine runs every sweep of the solve, the preconditioner's
	// included, and its pooled dispatches adopt the solve's pprof labels.
	eng := kernels.New(n, opt.Workers)
	eng.SetLabelContext(opt.Ctx)
	var start, t0 time.Time
	if collect {
		start = time.Now()
	}
	// When the caller's context carries a request trace (the solve service),
	// the whole CG loop becomes one "cg-solve" span of that request's tree,
	// tagged with the typed outcome. No-op otherwise (nil span).
	span := trace.StartSpan(opt.Ctx, "cg-solve")

	res := BlockResult{Columns: make([]Result, k)}
	for c := range res.Columns {
		res.Columns[c].RelResidual = 1
	}

	// Work blocks from the size-keyed scratch pool: repeated solves at the
	// same (rows × k) reuse them instead of allocating. A block
	// preconditioner gets one more, for its apply's scratch.
	bp, _ := m.(BlockPreconditioner)
	work := [5]*[]float64{}
	for i := range work {
		work[i] = kernels.GetBlockScratch(n * k)
	}
	defer func() {
		for _, w := range work {
			kernels.PutBlockScratch(w)
		}
	}()
	xw, r, z, p, q := *work[0], *work[1], *work[2], *work[3], *work[4]
	var tmp []float64
	if bp != nil {
		tb := kernels.GetBlockScratch(n * k)
		defer kernels.PutBlockScratch(tb)
		tmp = *tb
	}
	col := func(v []float64, s int) []float64 { return v[s*n : (s+1)*n] }

	// Slot bookkeeping: active columns live compacted in slots [0,nact);
	// colOf maps a slot back to its input column. Deflation compacts
	// stably, preserving relative column order (deterministic results).
	colOf := make([]int, k)
	bnorm := make([]float64, k) // indexed by input column
	rzv := make([]float64, k)   // per-slot rᵀz
	relv := make([]float64, k)  // per-slot current relative residual
	best := make([]float64, k)  // per-slot best residual (stagnation guard)
	bestIter := make([]int, k)  // per-slot iteration that set best
	dead := make([]bool, k)     // slot terminated; retire compacts it out
	nact := 0

	running := func() Timing {
		t := res.Timing
		if collect {
			t.Total = time.Since(start)
		}
		return t
	}

	// terminate finalizes the column in slot s (status, residual, optional
	// checkpoint), copies its iterate to the output block and marks the slot
	// dead; retire compacts it out.
	terminate := func(s int, status Status, rel float64, cp *Checkpoint) {
		c := colOf[s]
		res.Columns[c].Status = status
		res.Columns[c].Converged = status == StatusConverged
		res.Columns[c].RelResidual = rel
		res.Columns[c].Checkpoint = cp
		copy(x[c*n:(c+1)*n], col(xw, s))
		dead[s] = true
	}

	// retire removes dead slots, stably. A column that ended in a breakdown,
	// stagnation or cancellation first gets its terminal ProgressDetail
	// snapshot, so watchers see the end instead of a vanishing solve.
	retire := func() {
		alive := 0
		for s := 0; s < nact; s++ {
			if dead[s] {
				dead[s] = false
				c := &res.Columns[colOf[s]]
				if opt.ProgressDetail != nil && c.Status != StatusConverged && c.Status != StatusMaxIter {
					opt.ProgressDetail(ProgressInfo{
						Iteration: c.Iterations, RelRes: c.RelResidual, Status: c.Status, Timing: running()})
				}
				continue
			}
			if s != alive {
				copy(col(xw, alive), col(xw, s))
				copy(col(r, alive), col(r, s))
				copy(col(p, alive), col(p, s))
				colOf[alive] = colOf[s]
				rzv[alive] = rzv[s]
				relv[alive] = relv[s]
				best[alive] = best[s]
				bestIter[alive] = bestIter[s]
			}
			alive++
		}
		nact = alive
	}

	finish := func() BlockResult {
		if collect {
			res.Timing.Total = time.Since(start)
		}
		if opt.Metrics != nil {
			opt.Metrics.Counter("kernels.pool.dispatches").Add(kernels.PoolDispatches() - dispatches0)
		}
		res.AllConverged = true
		status := StatusConverged
		for c := range res.Columns {
			rc := &res.Columns[c]
			rc.Timing = res.Timing
			if !rc.Converged {
				res.AllConverged = false
				if status == StatusConverged {
					status = rc.Status
				}
			}
			if rc.Iterations > res.Iterations {
				res.Iterations = rc.Iterations
			}
		}
		span.SetAttr("status", status.String())
		span.SetAttr("iterations", fmt.Sprint(res.Iterations))
		span.SetAttr("columns", fmt.Sprint(k))
		span.End()
		return res
	}

	// Initial residuals. A zero right-hand side converges to x = 0 without
	// occupying a slot; a resumed column restores its iterate (and, from a
	// full checkpoint, its search direction).
	startIter := 0
	exact := false // exact-recurrence resume: p and rᵀz restored
	for c := 0; c < k; c++ {
		bc := b[c*n : (c+1)*n]
		bnorm[c] = eng.Norm2(bc)
		if bnorm[c] == 0 {
			Fill(x[c*n:(c+1)*n], 0)
			res.Columns[c] = Result{Status: StatusConverged, Converged: true}
			continue
		}
		s := nact
		nact++
		colOf[s] = c
		xs, rs := col(xw, s), col(r, s)
		copy(rs, bc)
		if cp := opt.Resume; cp != nil && len(cp.X) == n {
			copy(xs, cp.X)
			startIter = cp.Iter
			res.Columns[c].Iterations = cp.Iter
			if len(cp.R) == n {
				copy(rs, cp.R)
			} else {
				// Recompute r = b - A x from the restored iterate.
				eng.SpMM(a, col(q, s), xs, 1)
				for i := range rs {
					rs[i] = bc[i] - q[s*n+i]
				}
			}
			if len(cp.P) == n && !math.IsNaN(cp.RZ) && cp.RZ > 0 {
				copy(col(p, s), cp.P)
				rzv[s] = cp.RZ
				exact = true
			}
		} else {
			Fill(xs, 0)
		}
		rel := eng.Norm2(rs) / bnorm[c]
		relv[s], best[s], bestIter[s] = rel, rel, startIter
		res.Columns[c].RelResidual = rel
		if opt.RecordHistory {
			res.Columns[c].History = append(res.Columns[c].History, rel)
		}
		switch {
		case math.IsNaN(rel) || math.IsInf(rel, 0):
			terminate(s, StatusNaNOrInf, rel, nil)
		case rel <= opt.Tol:
			// A resumed solve can arrive already converged.
			terminate(s, StatusConverged, rel, nil)
		}
	}
	retire()
	if nact == 0 {
		return finish()
	}

	applyBlock := func() {
		if collect {
			t0 = time.Now()
		}
		if bp != nil {
			bp.ApplyBlock(eng, z[:nact*n], r[:nact*n], tmp[:nact*n], nact)
		} else {
			for s := 0; s < nact; s++ {
				m.Apply(col(z, s), col(r, s))
			}
		}
		if collect {
			d := time.Since(t0)
			res.Timing.Precond += d
			hPrecond.Observe(float64(d.Nanoseconds()))
		}
	}

	if !exact {
		applyBlock()
		copy(p[:nact*n], z[:nact*n])
		for s := 0; s < nact; s++ {
			rzv[s] = eng.Dot(col(r, s), col(z, s))
		}
	}

	for it := startIter; it < opt.MaxIter; it++ {
		if (it-startIter)%opt.CancelCheckEvery == 0 && (opt.Ctx != nil || opt.ColumnCtx != nil) {
			all, cc := opt.Ctx != nil && opt.Ctx.Err() != nil, opt.ColumnCtx
			for s := 0; s < nact; s++ {
				if all || cc != nil && cc[colOf[s]] != nil && cc[colOf[s]].Err() != nil {
					// The last residual is already in the history; don't
					// duplicate it. The checkpoint resumes exactly.
					terminate(s, StatusCancelled, relv[s],
						snapshotCheckpoint(it, col(xw, s), col(r, s), col(p, s), rzv[s]))
				}
			}
			retire()
			if nact == 0 {
				return finish()
			}
		}
		ka := nact

		if collect {
			t0 = time.Now()
		}
		eng.SpMM(a, q[:ka*n], p[:ka*n], ka)
		if faultinject.Enabled() {
			faultinject.SpMVOut(it+1, q[:ka*n])
		}
		if collect {
			d := time.Since(t0)
			res.Timing.SpMV += d
			hSpMV.Observe(float64(d.Nanoseconds()))
			t0 = time.Now()
		}

		updated := 0
		for s := 0; s < ka; s++ {
			ps, qs, xs, rs := col(p, s), col(q, s), col(xw, s), col(r, s)
			pap := eng.Dot(ps, qs)
			if pap <= 0 || math.IsNaN(pap) || math.IsInf(pap, 0) {
				// Breakdown: A (or the preconditioned operator) lost positive
				// definiteness in finite precision, or a NaN/Inf entered the
				// recurrence. The iterate and residual are still the last
				// good state, so hand them back as a warm checkpoint; the
				// direction p is what broke, so it is dropped.
				status := StatusIndefinite
				if math.IsNaN(pap) || math.IsInf(pap, 0) {
					status = StatusNaNOrInf
				}
				rel := eng.Norm2(rs) / bnorm[colOf[s]]
				if opt.RecordHistory {
					res.Columns[colOf[s]].History = append(res.Columns[colOf[s]].History, rel)
				}
				terminate(s, status, rel, warmCheckpoint(it, xs, rs))
				continue
			}
			// Fused iterate/residual update: x += αp, r -= αap and ‖r‖² in
			// one sweep instead of the textbook two AXPYs plus a norm.
			rr := eng.XRUpdate(rzv[s]/pap, ps, qs, xs, rs)
			relv[s] = math.Sqrt(rr) / bnorm[colOf[s]]
			updated++
		}
		if collect {
			d := time.Since(t0)
			res.Timing.BLAS1 += d
			hBlas1.Observe(float64(d.Nanoseconds()))
		}
		iterCtr.Add(int64(updated))

		// Per-column outcome of this iteration. worst is the largest
		// residual among the columns that completed it — converged and
		// stagnated ones included, poisoned ones not.
		worst, reported := 0.0, false
		for s := 0; s < ka; s++ {
			if dead[s] {
				continue
			}
			c := colOf[s]
			rel := relv[s]
			res.Columns[c].Iterations = it + 1
			res.Columns[c].RelResidual = rel
			if opt.RecordHistory {
				res.Columns[c].History = append(res.Columns[c].History, rel)
			}
			if math.IsNaN(rel) || math.IsInf(rel, 0) {
				// The iterate itself may be poisoned; no checkpoint to offer.
				terminate(s, StatusNaNOrInf, rel, nil)
				continue
			}
			switch {
			case rel <= opt.Tol:
				terminate(s, StatusConverged, rel, nil)
			case opt.StagnationWindow <= 0:
			case rel < best[s]*(1-StagnationRelImprovement):
				best[s], bestIter[s] = rel, it+1
			case it+1-bestIter[s] >= opt.StagnationWindow:
				terminate(s, StatusStagnation, rel, warmCheckpoint(it+1, col(xw, s), col(r, s)))
			}
			reported = true
			worst = math.Max(worst, rel)
		}
		if reported && opt.ProgressDetail != nil {
			opt.ProgressDetail(ProgressInfo{
				Iteration: it + 1, RelRes: worst, Converged: worst <= opt.Tol, Timing: running()})
		}
		retire()
		if nact == 0 {
			return finish()
		}

		applyBlock()
		if collect {
			t0 = time.Now()
		}
		for s := 0; s < nact; s++ {
			rs, zs := col(r, s), col(z, s)
			rzNew := eng.Dot(rs, zs)
			eng.Xpay(zs, rzNew/rzv[s], col(p, s))
			rzv[s] = rzNew
		}
		if collect {
			res.Timing.BLAS1 += time.Since(t0)
		}
	}

	// Budget exhausted: the remaining columns carry full checkpoints so a
	// caller can grant more budget and resume them individually.
	for s := 0; s < nact; s++ {
		terminate(s, StatusMaxIter, relv[s],
			snapshotCheckpoint(opt.MaxIter, col(xw, s), col(r, s), col(p, s), rzv[s]))
	}
	retire()
	return finish()
}
