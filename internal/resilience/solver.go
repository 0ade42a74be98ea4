// Package resilience is the recovery policy around preconditioner setup and
// the PCG solve: typed breakdowns (see krylov.Status and fsai.SetupError)
// are not returned to the caller as failures but met with an escalation
// chain — diagonal-shift setup retries first, then degradation to
// progressively cheaper, more robust preconditioners, re-solving from the
// best iterate after every breakdown:
//
//	FSAIE(full) → FSAIE(sp) → FSAI → Jacobi → plain CG
//
// The caller builds each rung (Options.Build) and krylov times each solve;
// this package decides the order, the shifts and the restarts.
//
// Every attempt is recorded in a RecoveryLog and mirrored into telemetry
// ("resilience.retries", "resilience.fallbacks{from,to}"), so a recovered
// solve is never a silent one: the run report and /healthz both show what
// it took to converge.
//
// The adaptive-FSAI literature (Isotton/Janna/Bernaschi; Jia/Kang for
// residual-based SPAI) treats this kind of pattern/value fallback as part of
// a production preconditioner rather than an afterthought; this package is
// that layer for the reproduction.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Canonical rung names, matching the cmd/fsaisolve -precond spelling.
const (
	PrecondFSAIEFull = "fsaie"
	PrecondFSAIESp   = "fsaie-sp"
	PrecondFSAI      = "fsai"
	PrecondJacobi    = "jacobi"
	PrecondNone      = "none"
)

// fullChain is the escalation order, strongest first.
var fullChain = []string{PrecondFSAIEFull, PrecondFSAIESp, PrecondFSAI, PrecondJacobi, PrecondNone}

// Chain returns the escalation chain starting at the given rung (a copy),
// or nil when the name is not a recognized rung.
func Chain(from string) []string {
	for i, r := range fullChain {
		if r == from {
			return append([]string(nil), fullChain[i:]...)
		}
	}
	return nil
}

// DefaultStagnationWindow is the stagnation guard armed on resilient solves
// when the caller did not choose one: 250 iterations without a 0.1% residual
// improvement end the attempt and trigger the next rung.
const DefaultStagnationWindow = 250

// ErrNotConverged reports that the solve ended without reaching the
// tolerance even after every recovery rung (or ran out of iteration budget).
// The Outcome still carries the best iterate and the full recovery log.
var ErrNotConverged = errors.New("resilience: solve did not converge")

// Options configures a resilient solve.
type Options struct {
	// Precond is the starting rung (default PrecondFSAIEFull). The chain
	// degrades from here; see Chain.
	Precond string
	// Build (required) constructs one rung's preconditioner from m, the
	// setup matrix (plus αI on an FSAI-family shift retry); the second
	// result is an FSAI-family rung's factor. A *krylov.Jacobi result
	// reports its diagonal repairs into the attempt log.
	Build func(rung string, m *sparse.CSR) (krylov.Preconditioner, *fsai.Preconditioner, error)
	// Solve configures the PCG attempts. Ctx and Resume are managed by the
	// resilience loop, CollectTiming is always on (each attempt's Timing
	// is its clock); StagnationWindow defaults to DefaultStagnationWindow.
	Solve krylov.Options
	// SetupMatrix, when non-nil, is the matrix handed to preconditioner
	// setup, while the solve itself runs on the true operator. They differ
	// when the preconditioning pipeline works on corrupted, filtered or
	// stale data — exactly the scenario the recovery chain exists for.
	SetupMatrix *sparse.CSR
	// MaxShiftRetries bounds the diagonal-shift setup retries per FSAI rung
	// (default 4).
	MaxShiftRetries int
	// ShiftScale sets the first retry shift to ShiftScale × max|diag(A)|;
	// each further retry doubles it (default 1e-6).
	ShiftScale float64
	// Metrics, when non-nil, receives the recovery counters.
	Metrics *telemetry.Registry
	// OnAttempt, when non-nil, observes every attempt as it is recorded
	// (progress logging for CLIs).
	OnAttempt func(Attempt)
}

// Attempt is one recorded step of the recovery chain.
type Attempt struct {
	// Stage is "setup" or "solve".
	Stage string `json:"stage"`
	// Precond is the rung the attempt ran at.
	Precond string `json:"precond"`
	// Shift is the diagonal shift α in A + αI used for setup (0: none).
	Shift float64 `json:"shift,omitempty"`
	// Status is "ok" or the typed failure: a krylov.Status name for solve
	// attempts, "error:<reason>" for setup attempts.
	Status string `json:"status"`
	// Err is the error text of a failed setup attempt.
	Err string `json:"error,omitempty"`
	// Iterations / RelRes describe a solve attempt's end state.
	Iterations int     `json:"iterations,omitempty"`
	RelRes     float64 `json:"relres,omitempty"`
	// NS is the attempt's wall time: Build's for a setup attempt, the
	// solve's Timing.Total for a solve attempt.
	NS int64 `json:"ns"`
}

// RecoveryLog is the complete record of a resilient solve.
type RecoveryLog struct {
	// Attempts lists every setup and solve attempt in order.
	Attempts []Attempt `json:"attempts"`
	// Retries counts diagonal-shift setup retries.
	Retries int `json:"retries"`
	// Fallbacks counts rung degradations.
	Fallbacks int `json:"fallbacks"`
}

// Outcome is the result of a resilient solve.
type Outcome struct {
	// Result is the final PCG result: the last attempt's, except that its
	// Timing sums every solve attempt.
	Result krylov.Result
	// Precond is the rung that produced the final result; Shift the
	// diagonal shift its setup needed (0: none).
	Precond string
	Shift   float64
	// Recovered reports whether any retry, fallback or restart happened —
	// false for a clean first-attempt convergence.
	Recovered bool
	// FSAI is the final preconditioner when the final rung is FSAI-family.
	FSAI *fsai.Preconditioner
	// Log records every attempt.
	Log RecoveryLog
}

func (o *Outcome) record(opt *Options, a Attempt) {
	o.Log.Attempts = append(o.Log.Attempts, a)
	if opt.OnAttempt != nil {
		opt.OnAttempt(a)
	}
}

// Solve runs the fault-aware setup+solve pipeline on A x = b. The solution
// overwrites x. The returned Outcome is non-nil whenever the chain ran at
// all; the error is nil on convergence, ctx.Err() on cancellation and
// ErrNotConverged when every rung was exhausted.
func Solve(ctx context.Context, a *sparse.CSR, x, b []float64, opt Options) (*Outcome, error) {
	if opt.Build == nil {
		return nil, errors.New("resilience: Options.Build is required")
	}
	if opt.Precond == "" {
		opt.Precond = PrecondFSAIEFull
	}
	if opt.MaxShiftRetries <= 0 {
		opt.MaxShiftRetries = 4
	}
	if opt.ShiftScale <= 0 {
		opt.ShiftScale = 1e-6
	}
	chain := Chain(opt.Precond)
	if chain == nil {
		return nil, fmt.Errorf("resilience: %q is not a recovery rung (want one of %v)", opt.Precond, fullChain)
	}
	setupA := opt.SetupMatrix
	if setupA == nil {
		setupA = a
	}

	ko := opt.Solve
	ko.Ctx = ctx
	ko.CollectTiming = true
	if ko.StagnationWindow <= 0 {
		ko.StagnationWindow = DefaultStagnationWindow
	}
	// A caller-provided checkpoint (resume after cancellation) seeds the
	// first attempt; later attempts replace it with their own restart state.
	cp := ko.Resume
	ko.Resume = nil

	reg := opt.Metrics
	reg.SetHelp("resilience_retries", "diagonal-shift FSAI setup retries")
	reg.SetHelp("resilience_fallbacks", "preconditioner rung degradations by from/to")
	reg.SetHelp("resilience_solves", "resilient solves by final status")

	out := &Outcome{}
	for ri, rung := range chain {
		if ri > 0 {
			out.Log.Fallbacks++
			reg.Counter(fmt.Sprintf(`resilience.fallbacks{from="%s",to="%s"}`, chain[ri-1], rung)).Inc()
		}
		m, g, shift, err := out.buildRung(setupA, rung, &opt, reg)
		if err != nil {
			// Setup attempts (including failed shift retries) are already
			// in the log; degrade to the next rung.
			continue
		}
		ko2 := ko
		ko2.Resume = cp
		res := krylov.Solve(a, x, b, m, ko2)
		t := res.Timing
		out.record(&opt, Attempt{
			Stage: "solve", Precond: rung, Shift: shift,
			Status: res.Status.String(), Iterations: res.Iterations,
			RelRes: res.RelResidual, NS: t.Total.Nanoseconds(),
		})
		sum := out.Result.Timing
		out.Result = res
		out.Result.Timing = krylov.Timing{
			SpMV: sum.SpMV + t.SpMV, Precond: sum.Precond + t.Precond,
			BLAS1: sum.BLAS1 + t.BLAS1, Total: sum.Total + t.Total,
		}
		out.Precond, out.Shift, out.FSAI = rung, shift, g
		out.Recovered = out.Log.Retries > 0 || out.Log.Fallbacks > 0
		switch {
		case res.Status == krylov.StatusConverged:
			reg.Counter(`resilience.solves{status="converged"}`).Inc()
			return out, nil
		case res.Status == krylov.StatusCancelled:
			reg.Counter(`resilience.solves{status="cancelled"}`).Inc()
			if err := ctx.Err(); err != nil {
				return out, err
			}
			return out, context.Canceled
		case res.Status == krylov.StatusMaxIter:
			// The iteration budget is shared across attempts; a weaker rung
			// cannot do better within the same budget, so stop here.
			reg.Counter(`resilience.solves{status="max-iter"}`).Inc()
			return out, ErrNotConverged
		}
		// Breakdown: restart the next rung from the best finite iterate.
		cp = res.Checkpoint
		if cp != nil {
			cp.P, cp.RZ = nil, 0 // the direction died with the old preconditioner
			if !krylov.AllFinite(cp.X) || (cp.R != nil && !krylov.AllFinite(cp.R)) {
				cp = nil // poisoned state: restart from zero
			}
		}
	}
	reg.Counter(`resilience.solves{status="exhausted"}`).Inc()
	return out, ErrNotConverged
}

// buildRung asks Build for one rung's preconditioner, retrying FSAI-family
// setups with a doubling diagonal shift when the failure is retryable. All
// attempts land in the log; the returned error means the rung is unusable.
func (o *Outcome) buildRung(a *sparse.CSR, rung string, opt *Options, reg *telemetry.Registry) (krylov.Preconditioner, *fsai.Preconditioner, float64, error) {
	shift := 0.0
	as := a
	maxd := -1.0
	for try := 0; ; try++ {
		t0 := time.Now()
		m, p, err := opt.Build(rung, as)
		ns := time.Since(t0).Nanoseconds()
		if err == nil {
			status := "ok"
			if j, ok := m.(*krylov.Jacobi); ok {
				j.PublishWarnings(reg)
				if n := j.NegDiag + j.ZeroDiag; n > 0 {
					status = fmt.Sprintf("ok (%d diagonal entries repaired)", n)
				}
			}
			o.record(opt, Attempt{Stage: "setup", Precond: rung, Shift: shift, Status: status, NS: ns})
			return m, p, shift, nil
		}
		reason := fsai.ReasonUnknown
		if se, ok := fsai.AsSetupError(err); ok {
			reason = se.Reason
		}
		o.record(opt, Attempt{
			Stage: "setup", Precond: rung, Shift: shift,
			Status: "error:" + reason.String(), Err: err.Error(), NS: ns,
		})
		if !fsai.IsFamily(rung) || !reason.Retryable() || try >= opt.MaxShiftRetries {
			return nil, nil, shift, err
		}
		if shift == 0 {
			if maxd < 0 {
				maxd = maxAbsDiag(a)
				if maxd == 0 {
					maxd = 1
				}
			}
			shift = opt.ShiftScale * maxd
		} else {
			shift *= 2
		}
		o.Log.Retries++
		reg.Counter("resilience.retries").Inc()
		as = a.AddDiag(shift)
	}
}

func maxAbsDiag(a *sparse.CSR) float64 {
	maxd := 0.0
	for _, v := range a.Diag() {
		if av := math.Abs(v); av > maxd {
			maxd = av
		}
	}
	return maxd
}
