// The chaos suite: every fault class the taxonomy names is injected
// deterministically (seeded, see internal/faultinject), then the test asserts
// the three-step contract — the fault is *detected* with the right typed
// status, *attributed* in the recovery log and injector event log, and
// *recovered* to convergence by the escalation chain.
package resilience

import (
	"context"
	"strings"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func testProblem() (*sparse.CSR, []float64, []float64) {
	a := matgen.Laplace2D(12, 12)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	return a, make([]float64, a.Rows), b
}

// build is the rung builder the suite hands Solve: none, Jacobi and the
// FSAI family at default setup knobs, as cmd/fsaisolve builds them.
func build(rung string, m *sparse.CSR) (krylov.Preconditioner, *fsai.Preconditioner, error) {
	switch rung {
	case PrecondNone:
		return krylov.Identity{}, nil, nil
	case PrecondJacobi:
		return krylov.NewJacobi(m), nil, nil
	}
	p, err := fsai.ComputeNamed(rung, m, fsai.Options{})
	return p, p, err
}

func solveStatuses(log RecoveryLog) []string {
	var out []string
	for _, at := range log.Attempts {
		if at.Stage == "solve" {
			out = append(out, at.Precond+":"+at.Status)
		}
	}
	return out
}

func TestChainOrder(t *testing.T) {
	full := Chain(PrecondFSAIEFull)
	want := []string{"fsaie", "fsaie-sp", "fsai", "jacobi", "none"}
	if len(full) != len(want) {
		t.Fatalf("chain %v", full)
	}
	for i, r := range want {
		if full[i] != r {
			t.Fatalf("chain %v, want %v", full, want)
		}
	}
	if got := Chain(PrecondJacobi); len(got) != 2 {
		t.Fatalf("jacobi chain %v", got)
	}
	if Chain("bogus") != nil {
		t.Fatalf("unknown rung must yield nil chain")
	}
}

func TestCleanSolveNoRecovery(t *testing.T) {
	a, x, b := testProblem()
	out, err := Solve(context.Background(), a, x, b, Options{Build: build})
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	if !out.Result.Converged || out.Result.Status != krylov.StatusConverged {
		t.Fatalf("status %v", out.Result.Status)
	}
	if out.Recovered || out.Log.Retries != 0 || out.Log.Fallbacks != 0 {
		t.Fatalf("clean solve flagged as recovered: %+v", out.Log)
	}
	if out.Precond != PrecondFSAIEFull || out.Shift != 0 || out.FSAI == nil {
		t.Fatalf("precond=%q shift=%g fsai=%v", out.Precond, out.Shift, out.FSAI != nil)
	}
	if len(out.Log.Attempts) != 2 {
		t.Fatalf("expected [setup, solve], got %+v", out.Log.Attempts)
	}
}

func TestUnknownPrecondRejected(t *testing.T) {
	a, x, b := testProblem()
	if _, err := Solve(context.Background(), a, x, b, Options{Precond: "ilu", Build: build}); err == nil {
		t.Fatalf("unknown rung accepted")
	}
}

// Fault class 1: a mildly corrupted matrix reaches preconditioner setup.
// Detection: typed not-spd SetupError. Recovery: diagonal-shift retries on
// the same rung — no degradation needed.
func TestChaosShiftRetryRepairsSetup(t *testing.T) {
	a, x, b := testProblem()
	in := faultinject.New(11)
	bad, row := in.PerturbDiagonal(a, -4.0000001) // a[row,row] goes slightly negative
	reg := telemetry.NewRegistry()
	out, err := Solve(context.Background(), a, x, b, Options{
		Build:       build,
		SetupMatrix: bad,
		ShiftScale:  0.25, // first retry shifts by 0.25 × max|diag| = 1
		Metrics:     reg,
	})
	if err != nil {
		t.Fatalf("solve: %v (log %+v)", err, out.Log)
	}
	if !out.Recovered || out.Log.Retries == 0 {
		t.Fatalf("expected shift retries, log %+v", out.Log)
	}
	if out.Log.Fallbacks != 0 || out.Precond != PrecondFSAIEFull {
		t.Fatalf("shift retry should rescue the first rung, got precond=%q fallbacks=%d",
			out.Precond, out.Log.Fallbacks)
	}
	if out.Shift <= 0 {
		t.Fatalf("recovered setup should report its shift, got %g", out.Shift)
	}
	var sawNotSPD bool
	for _, at := range out.Log.Attempts {
		if at.Stage == "setup" && at.Status == "error:not-spd" {
			sawNotSPD = true
		}
	}
	if !sawNotSPD {
		t.Fatalf("failure not attributed as not-spd: %+v", out.Log.Attempts)
	}
	if got := reg.Counter("resilience.retries").Value(); got != int64(out.Log.Retries) {
		t.Errorf("retries counter %d, log says %d", got, out.Log.Retries)
	}
	if len(in.Events()) == 0 || in.Events()[0].Index != row {
		t.Errorf("injector event log lost the corruption: %v", in.Events())
	}
}

// Fault class 2: a zeroed diagonal that no reasonable shift repairs.
// Detection: not-spd on every FSAI rung. Recovery: degradation down to
// Jacobi, whose zero-diagonal guard repairs the entry, solving on the true
// operator.
func TestChaosFallbackToJacobi(t *testing.T) {
	a, x, b := testProblem()
	in := faultinject.New(5)
	bad, _ := in.ZeroDiagonal(a)
	reg := telemetry.NewRegistry()
	out, err := Solve(context.Background(), a, x, b, Options{
		Build:           build,
		SetupMatrix:     bad,
		MaxShiftRetries: 1, // default tiny shifts cannot fix a zeroed diagonal
		Metrics:         reg,
	})
	if err != nil {
		t.Fatalf("solve: %v (attempts %v)", err, solveStatuses(out.Log))
	}
	if out.Precond != PrecondJacobi {
		t.Fatalf("expected recovery at jacobi, got %q (attempts %v)", out.Precond, solveStatuses(out.Log))
	}
	if !out.Recovered || out.Log.Fallbacks != 3 {
		t.Fatalf("expected 3 fallbacks (fsaie→fsaie-sp→fsai→jacobi), log %+v", out.Log)
	}
	var jacobiRepaired bool
	for _, at := range out.Log.Attempts {
		if at.Precond == PrecondJacobi && at.Stage == "setup" && strings.Contains(at.Status, "repaired") {
			jacobiRepaired = true
		}
	}
	if !jacobiRepaired {
		t.Errorf("jacobi setup did not report the diagonal repair: %+v", out.Log.Attempts)
	}
	if got := reg.Counter(`resilience.fallbacks{from="fsai",to="jacobi"}`).Value(); got != 1 {
		t.Errorf("fallback counter fsai→jacobi = %d", got)
	}
	if got := reg.Counter("krylov.jacobi.zero_diag_fixed").Value(); got != 1 {
		t.Errorf("jacobi guard counter = %d", got)
	}
	if got := reg.Counter(`resilience.solves{status="converged"}`).Value(); got != 1 {
		t.Errorf(`resilience_solves{status="converged"} = %d, want 1`, got)
	}
}

// Fault class 3: a NaN lands in an SpMV output mid-solve. Detection:
// nan-or-inf breakdown at the injected iteration. Recovery: warm restart
// from the last good iterate on the next rung.
func TestChaosNaNSpMVWarmRestart(t *testing.T) {
	in := faultinject.New(21).WithSpMVNaN(4)
	restore := faultinject.Activate(in)
	defer restore()

	a, x, b := testProblem()
	out, err := Solve(context.Background(), a, x, b, Options{Precond: PrecondFSAI, Build: build})
	if err != nil {
		t.Fatalf("solve: %v (attempts %v)", err, solveStatuses(out.Log))
	}
	statuses := solveStatuses(out.Log)
	if len(statuses) < 2 || statuses[0] != "fsai:nan-or-inf" {
		t.Fatalf("first attempt should break with nan-or-inf: %v", statuses)
	}
	if out.Precond != PrecondJacobi {
		t.Fatalf("expected recovery on the jacobi rung, got %q", out.Precond)
	}
	if !out.Recovered || !out.Result.Converged {
		t.Fatalf("not recovered: %+v", out.Log)
	}
	// The restart is warm, not from scratch: total iterations continue past
	// the breakdown point (iteration 4).
	if out.Result.Iterations <= 3 {
		t.Fatalf("final iteration count %d does not continue the first attempt", out.Result.Iterations)
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Site != faultinject.SiteSpMVOut || ev[0].Iter != 4 {
		t.Fatalf("fault not attributed: %v", ev)
	}
}

// Fault class 4: a computed factor loses a row (zeroed values → GᵀG
// singular). Detection: the stagnation guard. Recovery: fallback rung from
// the stagnated iterate.
func TestChaosDroppedFactorRowStagnation(t *testing.T) {
	in := faultinject.New(42)
	a, x, b := testProblem()
	corrupted := false
	out, err := Solve(context.Background(), a, x, b, Options{
		Precond: PrecondFSAI,
		Build: func(rung string, m *sparse.CSR) (krylov.Preconditioner, *fsai.Preconditioner, error) {
			pc, p, err := build(rung, m)
			if p != nil && !corrupted {
				corrupted = true
				in.DropGRow(p.G)
				p.GT = p.G.Transpose()
			}
			return pc, p, err
		},
		Solve: krylov.Options{StagnationWindow: 30},
	})
	if err != nil {
		t.Fatalf("solve: %v (attempts %v)", err, solveStatuses(out.Log))
	}
	statuses := solveStatuses(out.Log)
	if statuses[0] != "fsai:stagnation" {
		t.Fatalf("dropped row not detected as stagnation: %v", statuses)
	}
	if !out.Result.Converged || !out.Recovered {
		t.Fatalf("not recovered: %v", statuses)
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Site != faultinject.SiteDropGRow {
		t.Fatalf("fault not attributed: %v", ev)
	}
}

// Cancellation is not a fault: the chain stops immediately, hands back a
// resumable checkpoint, and a later resilient solve picks it up and reaches
// the same tolerance as an uninterrupted run.
func TestChaosCancellationAndResume(t *testing.T) {
	a, xr, b := testProblem()
	ref, err := Solve(context.Background(), a, xr, b, Options{Build: build})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	x := make([]float64, a.Rows)
	opt := Options{Build: build}
	opt.Solve.CancelCheckEvery = 1
	opt.Solve.ProgressDetail = func(pi krylov.ProgressInfo) {
		if pi.Status == krylov.StatusUnknown && pi.Iteration == ref.Result.Iterations/2 {
			cancel()
		}
	}
	out, err := Solve(ctx, a, x, b, opt)
	if err != context.Canceled {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if out.Result.Status != krylov.StatusCancelled || out.Result.Checkpoint == nil {
		t.Fatalf("cancellation did not leave a checkpoint: %+v", out.Result.Status)
	}

	opt2 := Options{Build: build}
	opt2.Solve.Resume = out.Result.Checkpoint
	out2, err := Solve(context.Background(), a, x, b, opt2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out2.Result.Iterations != ref.Result.Iterations {
		t.Errorf("resumed total iterations %d, uninterrupted %d",
			out2.Result.Iterations, ref.Result.Iterations)
	}
	if out2.Result.RelResidual > ref.Result.RelResidual*1.0000001 {
		t.Errorf("resumed solve worse than uninterrupted: %g vs %g",
			out2.Result.RelResidual, ref.Result.RelResidual)
	}
}

func TestMaxIterStopsChain(t *testing.T) {
	a, x, b := testProblem()
	opt := Options{Build: build}
	opt.Solve.MaxIter = 3
	out, err := Solve(context.Background(), a, x, b, opt)
	if err != ErrNotConverged {
		t.Fatalf("err=%v want ErrNotConverged", err)
	}
	if out.Result.Status != krylov.StatusMaxIter {
		t.Fatalf("status %v", out.Result.Status)
	}
	// Budget exhaustion must not degrade the preconditioner: one setup, one
	// solve, no fallbacks.
	if out.Log.Fallbacks != 0 || len(out.Log.Attempts) != 2 {
		t.Fatalf("max-iter triggered fallbacks: %+v", out.Log)
	}
}
