package krylov

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sparse"
)

// fsaiLike is a two-factor test preconditioner applying Z = Gᵀ(G R) with
// the same shape the FSAI preconditioner has: ApplyBlock is two SpMM
// sweeps on the solve's engine through the solve's scratch, and Apply is
// the k = 1 case on an engine of its own. It lets this package prove the
// block solver's bit-identity claims without importing internal/core.
type fsaiLike struct {
	g, gt *sparse.CSR
	w     int // Apply's worker count
}

func newFsaiLike(n, w int) *fsaiLike {
	g := tridiag(n, -0.2, 1, 0)
	return &fsaiLike{g: g, gt: g.Transpose(), w: w}
}

func (f *fsaiLike) Apply(z, r []float64) {
	f.ApplyBlock(kernels.New(f.g.Rows, f.w), z, r, make([]float64, f.g.Rows), 1)
}

func (f *fsaiLike) ApplyBlock(e *kernels.Engine, z, r, tmp []float64, k int) {
	e.SpMM(f.g, tmp, r, k)
	e.SpMM(f.gt, z, tmp, k)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestSolveBlockColumnsBitIdenticalToScalar is the invariant the service
// batcher depends on: every column of a k-wide block solve is
// bit-identical to the one-column solve (Solve) of that column — including on the pooled kernel path and with columns that
// converge at different iterations (deflation).
func TestSolveBlockColumnsBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 40000
	if kernels.ParallelMinLen() > n {
		t.Fatalf("test needs n above the pooled threshold")
	}
	a := tridiag(n, -1, 2.5, -1)
	const k = 5
	w := 4
	m := newFsaiLike(n, w)
	b := make([]float64, n*k)
	copy(b[:n], randVec(rng, n))
	// Column 1 converges immediately-ish (a near-eigenvector scale), the
	// rest are generic — forcing deflation while others keep iterating.
	for i := 0; i < n; i++ {
		b[n+i] = 1e-3
	}
	copy(b[2*n:3*n], randVec(rng, n))
	copy(b[3*n:4*n], randVec(rng, n))
	for i := 0; i < n; i++ {
		b[4*n+i] = float64(i%17) - 8
	}

	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, m, Options{Tol: 1e-8, MaxIter: 300, Workers: w})
	if !br.AllConverged {
		t.Fatalf("block solve did not converge: %+v", br.Columns)
	}
	iters := map[int]bool{}
	for j := 0; j < k; j++ {
		xs := make([]float64, n)
		rs := Solve(a, xs, b[j*n:(j+1)*n], m, Options{Tol: 1e-8, MaxIter: 300, Workers: w})
		c := br.Columns[j]
		if c.Iterations != rs.Iterations || c.Status != rs.Status || c.RelResidual != rs.RelResidual {
			t.Fatalf("col %d: scalar {it=%d st=%v rel=%v} block {it=%d st=%v rel=%v}",
				j, rs.Iterations, rs.Status, rs.RelResidual, c.Iterations, c.Status, c.RelResidual)
		}
		iters[c.Iterations] = true
		for i := 0; i < n; i++ {
			if x[j*n+i] != xs[i] {
				t.Fatalf("col %d x[%d]: block %v != scalar %v (not bit-identical)", j, i, x[j*n+i], xs[i])
			}
		}
	}
	if len(iters) < 2 {
		t.Fatalf("expected columns to deflate at different iterations, all at %v", br.Columns[0].Iterations)
	}
}

// TestSolveBlockColumnCancel: a column whose context is already expired
// deflates out with StatusCancelled and a resumable checkpoint; the others
// converge normally — an expired deadline does not poison the batch.
func TestSolveBlockColumnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 500
	a := tridiag(n, -1, 2.5, -1)
	const k = 3
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, NewJacobi(a), Options{
		Tol: 1e-8, MaxIter: 1000, Workers: 1, CancelCheckEvery: 1,
		ColumnCtx: []context.Context{nil, cancelled, nil},
	})
	if br.Columns[1].Status != StatusCancelled {
		t.Fatalf("cancelled column status: %v", br.Columns[1].Status)
	}
	if br.Columns[1].Checkpoint == nil {
		t.Fatalf("cancelled column carries no checkpoint")
	}
	if br.Columns[0].Status != StatusConverged || br.Columns[2].Status != StatusConverged {
		t.Fatalf("surviving columns: %v / %v", br.Columns[0].Status, br.Columns[2].Status)
	}
	if br.AllConverged {
		t.Fatalf("AllConverged must be false with a cancelled column")
	}
}

// TestSolveBlockBreakdown: an indefinite operator trips the per-column
// curvature guard, with warm checkpoints on every broken column.
func TestSolveBlockBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 200
	a := tridiag(n, -1, 0.5, -1) // indefinite
	const k = 2
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, Options{Tol: 1e-10, MaxIter: 500, Workers: 1})
	for j := 0; j < k; j++ {
		st := br.Columns[j].Status
		if st != StatusIndefinite && st != StatusNaNOrInf {
			t.Fatalf("col %d: status %v, want a breakdown", j, st)
		}
		if !st.Breakdown() {
			t.Fatalf("status %v not classified as breakdown", st)
		}
		if br.Columns[j].Checkpoint == nil {
			t.Fatalf("col %d: broken column carries no checkpoint", j)
		}
	}
}

// TestSolveBlockTerminalSnapshots: a block whose columns end in a
// breakdown and a cancellation emits one final ProgressDetail per such
// column carrying its status — a watcher sees each column end instead of
// the solve vanishing — while the healthy column converges and the
// ordinary per-iteration snapshots keep flowing.
func TestSolveBlockTerminalSnapshots(t *testing.T) {
	n := 50
	c := sparse.NewCOO(n, n, n)
	c.Add(0, 0, -1) // the one negative eigenvalue
	for i := 1; i < n; i++ {
		c.Add(i, i, float64(1+i))
	}
	a := c.ToCSR()
	const k = 3
	b := make([]float64, n*k)
	b[0] = 1 // column 0 lives on the negative eigenvector: pᵀAp < 0
	for i := 1; i < n; i++ {
		b[n+i] = 1   // column 1: cancelled before its first iteration
		b[2*n+i] = 1 // column 2: SPD subspace, converges
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var terminal []ProgressInfo
	ordinary := 0
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, Options{
		Tol: 1e-8, MaxIter: 200, Workers: 1, CancelCheckEvery: 1, CollectTiming: true,
		ColumnCtx: []context.Context{nil, cancelled, nil},
		ProgressDetail: func(pi ProgressInfo) {
			if pi.Status == StatusUnknown {
				ordinary++
				return
			}
			terminal = append(terminal, pi)
		},
	})
	want := []Status{StatusIndefinite, StatusCancelled, StatusConverged}
	for j, st := range want {
		if br.Columns[j].Status != st {
			t.Fatalf("col %d: status %v, want %v", j, br.Columns[j].Status, st)
		}
	}
	if len(terminal) != 2 {
		t.Fatalf("got %d terminal snapshots %+v, want one per non-converged column", len(terminal), terminal)
	}
	seen := map[Status]bool{}
	for _, pi := range terminal {
		seen[pi.Status] = true
		if pi.Iteration != 0 {
			t.Errorf("terminal %v snapshot at iteration %d, want 0", pi.Status, pi.Iteration)
		}
		if pi.Timing.Total <= 0 {
			t.Errorf("terminal %v snapshot without running timing", pi.Status)
		}
	}
	if !seen[StatusIndefinite] || !seen[StatusCancelled] {
		t.Fatalf("terminal snapshot statuses %v, want indefinite and cancelled", seen)
	}
	if ordinary != br.Columns[2].Iterations {
		t.Fatalf("%d ordinary snapshots, want one per iteration (%d)", ordinary, br.Columns[2].Iterations)
	}
}

// TestSolveBlockZeroColumn: a zero right-hand side converges immediately
// with a zero solution, without occupying a slot in the active block.
func TestSolveBlockZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 300
	a := tridiag(n, -1, 2.5, -1)
	const k = 2
	b := make([]float64, n*k)
	copy(b[n:], randVec(rng, n))
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, Options{Tol: 1e-8, MaxIter: 500, Workers: 1})
	if !br.Columns[0].Converged || br.Columns[0].RelResidual != 0 || br.Columns[0].Iterations != 0 {
		t.Fatalf("zero column: %+v", br.Columns[0])
	}
	for i := 0; i < n; i++ {
		if x[i] != 0 {
			t.Fatalf("zero column solution x[%d]=%v", i, x[i])
		}
	}
	if !br.Columns[1].Converged {
		t.Fatalf("nonzero column did not converge: %+v", br.Columns[1])
	}
}

// TestSolveBlockGlobalCancel: cancelling the block context ends every
// remaining column with StatusCancelled and resumable checkpoints.
func TestSolveBlockGlobalCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 400
	a := tridiag(n, -1, 2.01, -1)
	const k = 2
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, Options{
		Tol: 1e-12, MaxIter: 10000, Workers: 1, Ctx: ctx, CancelCheckEvery: 1,
	})
	for j := 0; j < k; j++ {
		if br.Columns[j].Status != StatusCancelled {
			t.Fatalf("col %d: %v", j, br.Columns[j].Status)
		}
		if br.Columns[j].Checkpoint == nil {
			t.Fatalf("col %d: no checkpoint", j)
		}
	}
}
