package krylov

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func TestStatusNames(t *testing.T) {
	cases := map[Status]string{
		StatusUnknown:    "unknown",
		StatusConverged:  "converged",
		StatusMaxIter:    "max-iter",
		StatusIndefinite: "indefinite-curvature",
		StatusNaNOrInf:   "nan-or-inf",
		StatusStagnation: "stagnation",
		StatusCancelled:  "cancelled",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String()=%q want %q", int(s), s.String(), want)
		}
		b, err := json.Marshal(s)
		if err != nil || string(b) != `"`+want+`"` {
			t.Errorf("marshal %v: %s, %v", s, b, err)
		}
	}
	for _, s := range []Status{StatusIndefinite, StatusNaNOrInf, StatusStagnation} {
		if !s.Breakdown() {
			t.Errorf("%v should be a breakdown", s)
		}
	}
	for _, s := range []Status{StatusUnknown, StatusConverged, StatusMaxIter, StatusCancelled} {
		if s.Breakdown() {
			t.Errorf("%v should not be a breakdown", s)
		}
	}
}

func TestJacobiNegativeDiagonalGuard(t *testing.T) {
	b := sparse.NewCOO(3, 3, 3)
	b.Add(0, 0, 2)
	b.Add(1, 1, -4)
	b.Add(2, 2, 0)
	j := NewJacobi(b.ToCSR())
	if j.NegDiag != 1 || j.ZeroDiag != 1 {
		t.Fatalf("NegDiag=%d ZeroDiag=%d, want 1,1", j.NegDiag, j.ZeroDiag)
	}
	want := []float64{0.5, 0.25, 1}
	for i, w := range want {
		if j.InvDiag[i] != w {
			t.Errorf("InvDiag[%d]=%g want %g", i, j.InvDiag[i], w)
		}
	}
	reg := telemetry.NewRegistry()
	j.PublishWarnings(reg)
	if v := reg.Counter("krylov.jacobi.neg_diag_fixed").Value(); v != 1 {
		t.Errorf("neg_diag_fixed=%d want 1", v)
	}
	if v := reg.Counter("krylov.jacobi.zero_diag_fixed").Value(); v != 1 {
		t.Errorf("zero_diag_fixed=%d want 1", v)
	}
	// Nil-safety: must not panic.
	j.PublishWarnings(nil)
	(*Jacobi)(nil).PublishWarnings(reg)
}

func TestSolveStatusConvergedAndMaxIter(t *testing.T) {
	n := 64
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	rhs[0] = 1
	x := make([]float64, n)
	res := Solve(a, x, rhs, nil, DefaultOptions())
	if res.Status != StatusConverged || !res.Converged {
		t.Fatalf("status=%v converged=%v", res.Status, res.Converged)
	}
	if res.Checkpoint != nil {
		t.Errorf("converged solve should carry no checkpoint")
	}

	opt := DefaultOptions()
	opt.MaxIter = 3
	x = make([]float64, n)
	res = Solve(a, x, rhs, nil, opt)
	if res.Status != StatusMaxIter || res.Converged {
		t.Fatalf("status=%v want max-iter", res.Status)
	}
	if res.Checkpoint == nil || res.Checkpoint.Iter != 3 || len(res.Checkpoint.P) != n {
		t.Fatalf("max-iter should carry a full checkpoint, got %+v", res.Checkpoint)
	}
}

func TestSolveIndefiniteBreakdown(t *testing.T) {
	// An indefinite diagonal makes pᵀAp negative on the first iteration.
	n := 4
	b := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, -1)
	}
	a := b.ToCSR()
	rhs := []float64{1, 1, 1, 1}
	x := make([]float64, n)

	var last ProgressInfo
	opt := DefaultOptions()
	opt.CollectTiming = true
	opt.RecordHistory = true
	opt.ProgressDetail = func(pi ProgressInfo) { last = pi }
	res := Solve(a, x, rhs, nil, opt)
	if res.Status != StatusIndefinite {
		t.Fatalf("status=%v want indefinite-curvature", res.Status)
	}
	if res.Checkpoint == nil || res.Checkpoint.P != nil {
		t.Fatalf("breakdown should carry a warm checkpoint (P nil), got %+v", res.Checkpoint)
	}
	// Satellite fix: the breakdown path must still emit a terminal
	// ProgressDetail (status set) and account its BLAS-1 time.
	if last.Status != StatusIndefinite {
		t.Errorf("terminal ProgressDetail missing: last status %v", last.Status)
	}
	if res.Timing.Total <= 0 {
		t.Errorf("breakdown dropped Timing.Total")
	}
	if len(res.History) == 0 {
		t.Errorf("breakdown dropped the final history entry")
	}
}

// nanPrecond poisons the preconditioner output from a given apply count on.
type nanPrecond struct{ applies, from int }

func (m *nanPrecond) Apply(z, r []float64) {
	copy(z, r)
	m.applies++
	if m.applies >= m.from {
		z[0] = math.NaN()
	}
}

func TestSolveNaNDetection(t *testing.T) {
	n := 32
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	rhs[0] = 1
	x := make([]float64, n)
	res := Solve(a, x, rhs, &nanPrecond{from: 3}, DefaultOptions())
	if res.Status != StatusNaNOrInf {
		t.Fatalf("status=%v want nan-or-inf", res.Status)
	}
	if res.Converged {
		t.Fatalf("NaN solve must not report convergence")
	}

	// NaN already in the right-hand side: detected before iterating.
	rhs[1] = math.NaN()
	x = make([]float64, n)
	res = Solve(a, x, rhs, nil, DefaultOptions())
	if res.Status != StatusNaNOrInf || res.Iterations != 0 {
		t.Fatalf("status=%v iters=%d want nan-or-inf at iteration 0", res.Status, res.Iterations)
	}
}

// singularPrecond applies M = BᵀB where B is a lower bidiagonal factor with
// one zeroed row — the shape of an FSAI GᵀG that lost a factor row. M is
// singular PSD with coupling, so PCG keeps iterating with positive pᵀAp but
// the residual component in the null space never clears: a plateau, not a
// curvature breakdown.
type singularPrecond struct{ k int }

func (m singularPrecond) Apply(z, r []float64) {
	n := len(r)
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		t[i] = r[i]
		if i > 0 {
			t[i] += 0.3 * r[i-1]
		}
	}
	t[m.k] = 0
	for i := 0; i < n; i++ {
		z[i] = t[i]
		if i < n-1 {
			z[i] += 0.3 * t[i+1]
		}
	}
}

func TestSolveStagnationGuard(t *testing.T) {
	n := 32
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	opt := DefaultOptions()
	opt.StagnationWindow = 25
	res := Solve(a, x, rhs, singularPrecond{k: n / 2}, opt)
	if res.Status != StatusStagnation {
		t.Fatalf("status=%v (iters=%d rel=%g) want stagnation", res.Status, res.Iterations, res.RelResidual)
	}
	if res.Checkpoint == nil || res.Checkpoint.P != nil {
		t.Fatalf("stagnation should carry a warm checkpoint, got %+v", res.Checkpoint)
	}
	if res.Iterations >= opt.MaxIter {
		t.Errorf("stagnation guard should fire well before MaxIter, took %d", res.Iterations)
	}
}

func TestSolveCancellation(t *testing.T) {
	n := 256
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	rhs[0] = 1
	x := make([]float64, n)

	ctx, cancel := context.WithCancel(context.Background())
	var last ProgressInfo
	opt := DefaultOptions()
	opt.Ctx = ctx
	opt.CancelCheckEvery = 1
	opt.ProgressDetail = func(pi ProgressInfo) {
		last = pi
		if pi.Status == StatusUnknown && pi.Iteration == 10 {
			cancel()
		}
	}
	res := Solve(a, x, rhs, nil, opt)
	if res.Status != StatusCancelled || res.Converged {
		t.Fatalf("status=%v want cancelled", res.Status)
	}
	if res.Iterations != 10 {
		t.Fatalf("cancelled at iteration %d, want 10", res.Iterations)
	}
	cp := res.Checkpoint
	if cp == nil || cp.Iter != 10 || len(cp.P) != n || len(cp.R) != n {
		t.Fatalf("cancellation should carry a full checkpoint, got %+v", cp)
	}
	if last.Status != StatusCancelled {
		t.Errorf("terminal ProgressDetail missing on cancellation: %v", last.Status)
	}
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	n := 200
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}

	// Reference: uninterrupted solve.
	ref := make([]float64, n)
	resRef := Solve(a, ref, rhs, nil, DefaultOptions())
	if !resRef.Converged {
		t.Fatalf("reference did not converge")
	}

	// Interrupted: cancel mid-flight, then resume from the checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	x := make([]float64, n)
	opt := DefaultOptions()
	opt.Ctx = ctx
	opt.CancelCheckEvery = 1
	opt.ProgressDetail = func(pi ProgressInfo) {
		if pi.Status == StatusUnknown && pi.Iteration == resRef.Iterations/2 {
			cancel()
		}
	}
	res1 := Solve(a, x, rhs, nil, opt)
	if res1.Status != StatusCancelled || res1.Checkpoint == nil {
		t.Fatalf("expected cancellation with checkpoint, got %v", res1.Status)
	}

	opt2 := DefaultOptions()
	opt2.Resume = res1.Checkpoint
	res2 := Solve(a, x, rhs, nil, opt2)
	if !res2.Converged {
		t.Fatalf("resumed solve did not converge: %v rel=%g", res2.Status, res2.RelResidual)
	}
	// An exact resume replays the same recurrence: identical total iteration
	// count and (up to round-off) the same solution as the uninterrupted run.
	if res2.Iterations != resRef.Iterations {
		t.Errorf("resumed total iterations %d, uninterrupted %d", res2.Iterations, resRef.Iterations)
	}
	if res2.RelResidual > opt2.Tol {
		t.Errorf("resumed solve above tolerance: %g", res2.RelResidual)
	}
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
			t.Fatalf("x[%d]=%g differs from uninterrupted %g", i, x[i], ref[i])
		}
	}
}

func TestResumeWarmWithoutResidual(t *testing.T) {
	n := 100
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	rhs[n/2] = 1

	x := make([]float64, n)
	opt := DefaultOptions()
	opt.MaxIter = 10
	res := Solve(a, x, rhs, nil, opt)
	if res.Status != StatusMaxIter {
		t.Fatalf("want max-iter, got %v", res.Status)
	}

	// Warm resume with only the iterate: R and P must be reconstructed.
	cp := &Checkpoint{Iter: res.Checkpoint.Iter, X: res.Checkpoint.X}
	opt2 := DefaultOptions()
	opt2.Resume = cp
	res2 := Solve(a, x, rhs, nil, opt2)
	if !res2.Converged {
		t.Fatalf("warm resume did not converge: %v", res2.Status)
	}
	if res2.RelResidual > opt2.Tol {
		t.Errorf("warm resume above tolerance: %g", res2.RelResidual)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, 1, -2.5}) {
		t.Errorf("finite slice misreported")
	}
	if AllFinite([]float64{0, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Errorf("non-finite slice misreported")
	}
}
