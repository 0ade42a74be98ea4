// Package kernels is the high-performance execution layer of the solve hot
// path. It provides pooled, allocation-free vector (BLAS-1) and sparse
// product (SpMM; SpMV is its k = 1 case) kernels built on the persistent
// worker pool of internal/parallel and the nnz-balanced partition plans of
// internal/sparse.
//
// The package exists because the PCG loop of Section 2.1 is a handful of
// memory-bound sweeps repeated thousands of times: three SpMV products (one
// with A, two inside the FSAI application) plus the BLAS-1 tail. At that
// cadence, per-call goroutine spawning, per-call closure allocation and
// unnecessary full-vector sweeps dominate. An Engine removes all three:
//
//   - kernel bodies are bound once at construction, so a dispatch performs
//     zero heap allocations;
//   - the fused XRUpdate merges the x/r updates and the residual norm into
//     a single sweep, dropping the PCG iteration from ~8 full-vector passes
//     to ~5 (see docs/performance.md for the map);
//   - reductions combine per-chunk partials in chunk order, so results are
//     deterministic for a fixed worker count;
//   - one size rule (Pooled) decides every kernel: a sweep over fewer than
//     ParallelMinLen elements — a vector's length, or rows×k for SpMM —
//     runs serially on the caller, bit-identical to the reference kernels.
//
// SpMM's rows run sparse.(*CSR).MulMatRange, whose single-column row loop
// is an assembly body on amd64 and the Go body elsewhere. The two produce
// the same bits, so SpMM's result depends neither on which body the GOARCH
// runs nor on the worker count.
//
// An Engine is NOT safe for concurrent use; give each solve its own. All
// engines share the process-wide worker pool, whose busy-fallback keeps
// concurrent solves correct (they degrade to inline execution instead of
// queueing). Below the size rule's threshold no kernel touches the pool, so
// concurrent small solves (the daemon's warm requests) never contend for it.
package kernels

import (
	"context"
	"math"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// parallelMinLen is the sweep size (see Pooled) below which every kernel
// runs serially: a pool dispatch costs on the order of a microsecond, which
// a sweep over a few thousand elements does not amortize. SpMM with an
// FSAIE solve's A, G or Gᵀ gained nothing from a second worker below ~32k
// rows while pool workers blocked after every dispatch; with polling
// workers a lone solver gains from 1.6k rows (BenchmarkEngineSpMMWorkers),
// but fsaid's concurrent small solves would then share one pool
// (docs/performance.md). Serial execution is also bit-identical
// to the reference kernels, which keeps short solves (including the
// committed perf baseline) deterministic across hosts. A variable, not a
// constant, so tests can force the pooled path.
var parallelMinLen = 1 << 15

// ParallelMinLen reports the current parallelism threshold.
func ParallelMinLen() int { return parallelMinLen }

// Pooled is the size rule of every Engine kernel: a sweep over n elements
// (a vector's length, or rows×k for a k-column SpMM) runs on the pool at
// the given worker count only when workers > 1 and n >= ParallelMinLen.
// Callers that report on a kernel (the solver's partition-plan gauge) use
// it too, so the report and the kernel cannot disagree.
func Pooled(workers, n int) bool { return workers > 1 && n >= parallelMinLen }

// Engine schedules the solve-loop kernels for one solver instance. The
// operand slots plus pre-bound chunk bodies are what make steady-state
// dispatches allocation-free: methods store their arguments in the slots
// and hand the pool a func value created once in New.
type Engine struct {
	workers int
	pool    *parallel.Pool

	n       int
	vbounds []int     // equal chunks of [0,n) for the BLAS-1 sweeps
	parts   []float64 // per-chunk reduction partials

	// Operand slots, valid during one kernel call.
	ra, rb          []float64 // reduction inputs
	ax, ay          []float64 // axpy/xpay operands
	fp, fap, fx, fr []float64 // fused-update operands
	alpha, beta     float64
	sm              *sparse.CSR
	sy, sx          []float64
	sk              int // SpMM block width

	// lctx is the pprof label context pooled dispatches run under (job id,
	// solver phase); nil means unlabeled. See SetLabelContext.
	lctx context.Context

	dotBody, axpyBody, xpayBody, xrBody, spmmBody func(chunk, lo, hi int)
}

// New returns an engine for vectors of length n using the given worker
// count (<=0: all CPUs) on the process-wide pool.
func New(n, workers int) *Engine {
	return NewWithPool(n, workers, parallel.Default())
}

// NewWithPool is New with an explicit pool; tests use it to exercise the
// pooled paths with a deterministic worker count.
func NewWithPool(n, workers int, pool *parallel.Pool) *Engine {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	e := &Engine{workers: workers, pool: pool, n: n}
	if workers > 1 {
		e.vbounds = parallel.Chunks(n, workers)
		e.parts = make([]float64, len(e.vbounds)/2+1)
	}
	e.dotBody = func(c, lo, hi int) {
		a, b := e.ra, e.rb
		var s0, s1 float64
		i := lo
		for ; i+2 <= hi; i += 2 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
		}
		if i < hi {
			s0 += a[i] * b[i]
		}
		e.parts[c] = s0 + s1
	}
	e.axpyBody = func(_, lo, hi int) {
		alpha, x, y := e.alpha, e.ax, e.ay
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	}
	e.xpayBody = func(_, lo, hi int) {
		beta, x, y := e.beta, e.ax, e.ay
		for i := lo; i < hi; i++ {
			y[i] = x[i] + beta*y[i]
		}
	}
	e.xrBody = func(c, lo, hi int) {
		alpha, p, ap, x, r := e.alpha, e.fp, e.fap, e.fx, e.fr
		s := 0.0
		for i := lo; i < hi; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			s += ri * ri
		}
		e.parts[c] = s
	}
	e.spmmBody = func(_, lo, hi int) {
		e.sm.MulMatRange(e.sy, e.sx, e.sk, lo, hi)
	}
	return e
}

// SetLabelContext makes the engine's pooled dispatches run under ctx's
// pprof labels: the persistent pool workers adopt them per dispatch, so a
// captured CPU window attributes kernel time on every participant to the
// owning job and phase, not just on the submitting goroutine. A nil ctx
// (or one without labels) leaves dispatches unlabeled. Costs nothing per
// dispatch beyond two label swaps on each woken worker.
func (e *Engine) SetLabelContext(ctx context.Context) { e.lctx = ctx }

// parallelVec reports whether a BLAS-1 sweep of length n should be pooled.
func (e *Engine) parallelVec(n int) bool {
	return Pooled(e.workers, n) && len(e.vbounds) > 2
}

// run dispatches body over the engine's vector chunks, containing worker
// panics back onto the caller (matching parallel.For semantics).
func (e *Engine) run(body func(chunk, lo, hi int)) {
	if err := e.pool.RunLabeled(e.vbounds, body, e.lctx); err != nil {
		panic(err)
	}
}

// sumParts combines the per-chunk reduction partials in chunk order.
func (e *Engine) sumParts() float64 {
	s := 0.0
	for c := 0; c < len(e.vbounds)/2; c++ {
		s += e.parts[c]
	}
	return s
}

// SpMM computes the k-column block product Y = m X (column-major; k = 1
// is the single-vector SpMV). When Pooled(workers, rows×k) holds it
// schedules the matrix's nnz-balanced partition plan on the pool;
// otherwise it runs serially on the caller. Column j of the result is
// bit-identical to m.MulVec on column j either way: the row-chunked
// product sums each row exactly as the serial one does.
func (e *Engine) SpMM(m *sparse.CSR, y, x []float64, k int) {
	if !Pooled(e.workers, m.Rows*k) {
		m.MulMatRange(y, x, k, 0, m.Rows)
		return
	}
	pl := m.PartitionPlan(e.workers)
	if pl.NChunks() <= 1 {
		m.MulMatRange(y, x, k, 0, m.Rows)
		return
	}
	e.sm, e.sy, e.sx, e.sk = m, y, x, k
	if err := e.pool.RunLabeled(pl.Bounds, e.spmmBody, e.lctx); err != nil {
		panic(err)
	}
	e.sm, e.sy, e.sx = nil, nil, nil
}

// Dot returns aᵀb.
func (e *Engine) Dot(a, b []float64) float64 {
	if !e.parallelVec(len(a)) {
		return SerialDot(a, b)
	}
	e.ra, e.rb = a, b
	e.run(e.dotBody)
	e.ra, e.rb = nil, nil
	return e.sumParts()
}

// Norm2 returns ‖a‖₂.
func (e *Engine) Norm2(a []float64) float64 { return math.Sqrt(e.Dot(a, a)) }

// Axpy computes y += alpha x.
func (e *Engine) Axpy(alpha float64, x, y []float64) {
	if !e.parallelVec(len(x)) {
		SerialAxpy(alpha, x, y)
		return
	}
	e.alpha, e.ax, e.ay = alpha, x, y
	e.run(e.axpyBody)
	e.ax, e.ay = nil, nil
}

// Xpay computes y = x + beta y (the CG search-direction update).
func (e *Engine) Xpay(x []float64, beta float64, y []float64) {
	if !e.parallelVec(len(x)) {
		SerialXpay(x, beta, y)
		return
	}
	e.beta, e.ax, e.ay = beta, x, y
	e.run(e.xpayBody)
	e.ax, e.ay = nil, nil
}

// XRUpdate is the fused PCG iterate/residual update: x += alpha p,
// r -= alpha ap, returning rᵀr — one sweep where the textbook loop spends
// three (two AXPYs plus a norm). On the serial path the per-element
// operation order matches the three separate reference kernels exactly, so
// fusing changes no bits.
func (e *Engine) XRUpdate(alpha float64, p, ap, x, r []float64) float64 {
	if !e.parallelVec(len(p)) {
		return SerialXRUpdate(alpha, p, ap, x, r)
	}
	e.alpha, e.fp, e.fap, e.fx, e.fr = alpha, p, ap, x, r
	e.run(e.xrBody)
	e.fp, e.fap, e.fx, e.fr = nil, nil, nil, nil
	return e.sumParts()
}

// Serial reference kernels. These are the semantics the pooled/fused paths
// must reproduce (the property tests in this package hold them to 1e-13
// relative agreement); they are exported for callers that want guaranteed
// serial execution.

// SerialDot returns aᵀb with straight-line accumulation.
func SerialDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SerialAxpy computes y += alpha x.
func SerialAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// SerialXpay computes y = x + beta y.
func SerialXpay(x []float64, beta float64, y []float64) {
	for i := range x {
		y[i] = x[i] + beta*y[i]
	}
}

// SerialXRUpdate computes x += alpha p, r -= alpha ap and returns rᵀr.
func SerialXRUpdate(alpha float64, p, ap, x, r []float64) float64 {
	s := 0.0
	for i := range p {
		x[i] += alpha * p[i]
		ri := r[i] - alpha*ap[i]
		r[i] = ri
		s += ri * ri
	}
	return s
}

// PoolDispatches returns the cumulative pooled-dispatch count of the
// process-wide worker pool; the solver publishes the per-solve delta as the
// "kernels.pool.dispatches" counter.
func PoolDispatches() int64 { return parallel.Default().Dispatches() }
