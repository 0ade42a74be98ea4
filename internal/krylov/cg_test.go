package krylov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func tridiag(n int, lo, di, up float64) *sparse.CSR {
	b := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, di)
		if i > 0 {
			b.Add(i, i-1, lo)
		}
		if i < n-1 {
			b.Add(i, i+1, up)
		}
	}
	return b.ToCSR()
}

func TestVectorKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot=%g", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Errorf("Norm2 wrong")
	}
	y := []float64{1, 1, 1}
	Fill(y, 0)
	if y[0] != 0 || y[2] != 0 {
		t.Errorf("Fill=%v", y)
	}
}

func TestCGSolvesDiagonal(t *testing.T) {
	n := 10
	b := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(i+1))
	}
	a := b.ToCSR()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x := make([]float64, n)
	res := Solve(a, x, rhs, nil, DefaultOptions())
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-6 {
			t.Fatalf("x[%d]=%g want 1", i, x[i])
		}
	}
}

func TestCGExactnessInNSteps(t *testing.T) {
	// CG on an n-dimensional SPD system converges in at most n iterations
	// (exact arithmetic); allow a tiny slack for round-off.
	n := 16
	a := tridiag(n, -1, 2, -1)
	rhs := make([]float64, n)
	rhs[0] = 1
	x := make([]float64, n)
	res := Solve(a, x, rhs, nil, Options{Tol: 1e-10, MaxIter: n + 2})
	if !res.Converged {
		t.Fatalf("CG needed more than n iterations: %+v", res)
	}
}

func TestCGResidualMatchesReported(t *testing.T) {
	n := 50
	a := tridiag(n, -1, 2.1, -1)
	rng := rand.New(rand.NewSource(1))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res := Solve(a, x, rhs, nil, DefaultOptions())
	// Recompute the true residual.
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = rhs[i] - r[i]
	}
	rel := Norm2(r) / Norm2(rhs)
	if math.Abs(rel-res.RelResidual) > 1e-10 {
		t.Errorf("reported %g actual %g", res.RelResidual, rel)
	}
	if !res.Converged || rel > 1e-8 {
		t.Errorf("convergence claim wrong: %+v rel=%g", res, rel)
	}
}

func TestJacobiPreconditioner(t *testing.T) {
	// A badly diagonally-scaled system: Jacobi must cut iterations.
	n := 200
	b := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%5))
		b.Add(i, i, 2*scale)
		if i > 0 {
			b.Add(i, i-1, -0.5)
		}
		if i < n-1 {
			b.Add(i, i+1, -0.5)
		}
	}
	a := b.ToCSR()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	plain := Solve(a, x, rhs, nil, DefaultOptions())
	jac := Solve(a, x, rhs, NewJacobi(a), DefaultOptions())
	if !plain.Converged || !jac.Converged {
		t.Fatalf("convergence failed: plain=%+v jac=%+v", plain, jac)
	}
	if jac.Iterations >= plain.Iterations {
		t.Errorf("Jacobi (%d) should beat plain CG (%d)", jac.Iterations, plain.Iterations)
	}
}

func TestJacobiZeroDiagonalFallback(t *testing.T) {
	a, _ := sparse.NewCSRFromTriplets(2, 2, []sparse.Triplet{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	j := NewJacobi(a)
	if j.InvDiag[0] != 1 || j.InvDiag[1] != 1 {
		t.Errorf("zero diagonal fallback wrong: %v", j.InvDiag)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := tridiag(5, -1, 2, -1)
	x := []float64{1, 2, 3, 4, 5}
	res := Solve(a, x, make([]float64, 5), nil, DefaultOptions())
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero RHS: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Errorf("x should be zeroed, got %v", x)
		}
	}
}

func TestSolveMaxIterCap(t *testing.T) {
	n := 400
	a := tridiag(n, -1, 2.000001, -1) // nearly singular: slow convergence
	rhs := make([]float64, n)
	rhs[0] = 1
	x := make([]float64, n)
	res := Solve(a, x, rhs, nil, Options{Tol: 1e-14, MaxIter: 5})
	if res.Converged {
		t.Error("should not converge in 5 iterations")
	}
	if res.Iterations != 5 {
		t.Errorf("iterations=%d want 5", res.Iterations)
	}
}

func TestSolveHistory(t *testing.T) {
	a := tridiag(20, -1, 2.5, -1)
	rhs := make([]float64, 20)
	rhs[3] = 1
	x := make([]float64, 20)
	res := Solve(a, x, rhs, nil, Options{Tol: 1e-8, MaxIter: 100, RecordHistory: true})
	if len(res.History) != res.Iterations+1 {
		t.Fatalf("history length %d, want %d", len(res.History), res.Iterations+1)
	}
	if res.History[0] != 1 {
		t.Error("history must start at 1")
	}
	last := res.History[len(res.History)-1]
	if math.Abs(last-res.RelResidual) > 1e-15 {
		t.Errorf("history end %g != final %g", last, res.RelResidual)
	}
}

func TestSolveBreakdownOnIndefinite(t *testing.T) {
	// Indefinite matrix: pᵀAp can go non-positive; Solve must return
	// gracefully with Converged=false rather than NaN-spin.
	a, _ := sparse.NewCSRFromTriplets(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	x := make([]float64, 2)
	res := Solve(a, x, []float64{1, 1}, nil, DefaultOptions())
	if res.Converged {
		t.Error("indefinite system reported converged")
	}
	for _, v := range x {
		if math.IsNaN(v) {
			t.Error("NaN leaked into solution")
		}
	}
}

func TestSolveWorkersDefaultResolved(t *testing.T) {
	// Workers <= 0 is documented as "all CPUs": Solve must resolve it to
	// runtime.GOMAXPROCS(0) up front instead of handing the sentinel to the
	// SpMV kernels, and the answer must match the serial solve.
	n := 120
	a := tridiag(n, -1, 2.3, -1)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	serial := make([]float64, n)
	ref := Solve(a, serial, rhs, nil, Options{Tol: 1e-10, MaxIter: 1000, Workers: 1})
	for _, workers := range []int{0, -1, -8} {
		x := make([]float64, n)
		res := Solve(a, x, rhs, nil, Options{Tol: 1e-10, MaxIter: 1000, Workers: workers})
		if !res.Converged {
			t.Fatalf("Workers=%d did not converge: %+v", workers, res)
		}
		if res.Iterations != ref.Iterations {
			t.Errorf("Workers=%d iterations %d, serial %d", workers, res.Iterations, ref.Iterations)
		}
		for i := range x {
			if math.Abs(x[i]-serial[i]) > 1e-10 {
				t.Fatalf("Workers=%d x[%d]=%g, serial %g", workers, i, x[i], serial[i])
			}
		}
	}
}

func TestSolveBreakdownRecordsFinalHistory(t *testing.T) {
	// On the CG breakdown path (pap <= 0), a recorded history must still end
	// with the reported final relative residual rather than being silently
	// truncated. diag(1, -1) breaks down immediately: pᵀAp = 0.
	a, _ := sparse.NewCSRFromTriplets(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	x := make([]float64, 2)
	res := Solve(a, x, []float64{1, 1}, nil, Options{Tol: 1e-8, MaxIter: 50, RecordHistory: true})
	if res.Converged {
		t.Fatal("indefinite system reported converged")
	}
	if len(res.History) < 2 {
		t.Fatalf("history %v: breakdown entry missing", res.History)
	}
	if len(res.History) != res.Iterations+2 {
		t.Errorf("history length %d, want iterations+2 = %d", len(res.History), res.Iterations+2)
	}
	last := res.History[len(res.History)-1]
	if math.Abs(last-res.RelResidual) > 1e-15 {
		t.Errorf("history end %g != final residual %g", last, res.RelResidual)
	}
}

func TestSolveProgressCallback(t *testing.T) {
	a := tridiag(30, -1, 2.5, -1)
	rhs := make([]float64, 30)
	rhs[0] = 1
	x := make([]float64, 30)
	var iters []int
	var rels []float64
	res := Solve(a, x, rhs, nil, Options{Tol: 1e-8, MaxIter: 200, ProgressDetail: func(pi ProgressInfo) {
		if pi.Status != StatusUnknown {
			return
		}
		iters = append(iters, pi.Iteration)
		rels = append(rels, pi.RelRes)
	}})
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("progress called %d times, want %d", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("progress iteration %d at call %d", it, i)
		}
	}
	if got := rels[len(rels)-1]; math.Abs(got-res.RelResidual) > 1e-15 {
		t.Errorf("last progress residual %g != final %g", got, res.RelResidual)
	}
}

func TestSolveTimingBreakdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := tridiag(200, -1, 2.1, -1)
	rhs := make([]float64, 200)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, 200)
	res := Solve(a, x, rhs, NewJacobi(a), Options{
		Tol: 1e-8, MaxIter: 1000, CollectTiming: true, Metrics: reg,
	})
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	tm := res.Timing
	if tm.Total <= 0 || tm.SpMV <= 0 || tm.Precond <= 0 || tm.BLAS1 <= 0 {
		t.Fatalf("timing sections not populated: %+v", tm)
	}
	if sum := tm.SpMV + tm.Precond + tm.BLAS1; sum > tm.Total {
		t.Errorf("section sum %v exceeds total %v", sum, tm.Total)
	}
	snap := reg.Snapshot()
	if snap.Counters["krylov.iterations"] != int64(res.Iterations) {
		t.Errorf("iterations counter %d, want %d", snap.Counters["krylov.iterations"], res.Iterations)
	}
	for _, name := range []string{"krylov.iter.spmv_ns", "krylov.iter.precond_ns", "krylov.iter.blas1_ns"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %q missing or empty", name)
		}
	}
	// Timing off: breakdown must stay zero.
	x2 := make([]float64, 200)
	res2 := Solve(a, x2, rhs, NewJacobi(a), Options{Tol: 1e-8, MaxIter: 1000})
	if res2.Timing != (Timing{}) {
		t.Errorf("timing collected while disabled: %+v", res2.Timing)
	}
}

func TestSolveParallelWorkersMatchSerial(t *testing.T) {
	n := 300
	a := tridiag(n, -1, 2.2, -1)
	rng := rand.New(rand.NewSource(2))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	r1 := Solve(a, x1, rhs, nil, Options{Tol: 1e-8, MaxIter: 1000, Workers: 1})
	r2 := Solve(a, x2, rhs, nil, Options{Tol: 1e-8, MaxIter: 1000, Workers: 4})
	if r1.Iterations != r2.Iterations {
		t.Errorf("iteration mismatch: %d vs %d", r1.Iterations, r2.Iterations)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-12 {
			t.Fatalf("x[%d] differs: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestSolveProgressDetail(t *testing.T) {
	a := tridiag(30, -1, 2.5, -1)
	rhs := make([]float64, 30)
	rhs[0] = 1
	x := make([]float64, 30)
	var infos []ProgressInfo
	res := Solve(a, x, rhs, nil, Options{
		Tol: 1e-8, MaxIter: 200, CollectTiming: true,
		ProgressDetail: func(pi ProgressInfo) { infos = append(infos, pi) },
	})
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	if len(infos) != res.Iterations {
		t.Fatalf("detail called %d times, want %d", len(infos), res.Iterations)
	}
	for i, pi := range infos {
		if pi.Iteration != i+1 {
			t.Fatalf("iteration %d at call %d", pi.Iteration, i)
		}
		if pi.Converged != (i == len(infos)-1) {
			t.Fatalf("converged=%v at call %d of %d", pi.Converged, i, len(infos))
		}
		if pi.Timing.Total <= 0 {
			t.Fatalf("call %d: running Total = %v, want > 0 with CollectTiming", i, pi.Timing.Total)
		}
		if i > 0 && pi.Timing.Total < infos[i-1].Timing.Total {
			t.Fatalf("running Total decreased at call %d", i)
		}
	}
	last := infos[len(infos)-1]
	if math.Abs(last.RelRes-res.RelResidual) > 1e-15 {
		t.Errorf("last detail residual %g != final %g", last.RelRes, res.RelResidual)
	}

	// Without CollectTiming the snapshot carries a zero Timing.
	x = make([]float64, 30)
	var zero ProgressInfo
	Solve(a, x, rhs, nil, Options{Tol: 1e-8, MaxIter: 200,
		ProgressDetail: func(pi ProgressInfo) { zero = pi }})
	if zero.Timing != (Timing{}) {
		t.Errorf("Timing = %+v without CollectTiming, want zero", zero.Timing)
	}
}
