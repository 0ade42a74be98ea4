package obs

import (
	"math"
	"sync"
	"time"

	"repro/internal/krylov"
)

// SolveState is the live state of a PCG solve as served on /debug/solve.
// One JSON document per update; Seq increases with every published change so
// stream consumers can detect gaps.
type SolveState struct {
	// Active is true between Begin (or the first progress callback) and End.
	Active bool `json:"active"`
	// Done is true once End has been called for the current solve.
	Done bool `json:"done"`
	// Label names the solve (matrix/variant), when the caller provided one.
	Label string `json:"label,omitempty"`

	Iteration int     `json:"iteration"`
	MaxIter   int     `json:"max_iter,omitempty"`
	RelRes    float64 `json:"relres"`
	Tol       float64 `json:"tol,omitempty"`
	Converged bool    `json:"converged"`

	// Status is the typed krylov termination status: empty while the
	// outcome is still open, then "converged", "max-iter",
	// "indefinite-curvature", "nan-or-inf", "stagnation" or "cancelled"
	// (terminal breakdowns are published even mid-stream, so a watcher
	// never sees a solve silently vanish).
	Status string `json:"status,omitempty"`

	// ElapsedNS is wall time since Begin; ItersPerSec the observed rate.
	ElapsedNS   int64   `json:"elapsed_ns"`
	ItersPerSec float64 `json:"iters_per_sec,omitempty"`

	// ETAIterations/ETANS extrapolate the remaining work log-linearly from
	// the observed convergence rate (CG residuals decay geometrically to
	// first order): iterations-to-tolerance ≈ k·log(tol)/log(relres_k).
	// Zero when no estimate is possible (diverging, done, or first iter).
	ETAIterations int   `json:"eta_iterations,omitempty"`
	ETANS         int64 `json:"eta_ns,omitempty"`

	// Running kernel-class timing breakdown (populated when the solver
	// collects timing).
	SpMVNS    int64 `json:"spmv_ns,omitempty"`
	PrecondNS int64 `json:"precond_ns,omitempty"`
	BLAS1NS   int64 `json:"blas1_ns,omitempty"`

	// Seq increments on every published update.
	Seq uint64 `json:"seq"`
}

// SolveWatcher turns the krylov progress callback into a live, subscribable
// solve state. Wire it into a solve with:
//
//	w.Begin("matrix/variant", opt.Tol, opt.MaxIter)
//	opt.ProgressDetail = w.ProgressDetail
//	res := krylov.Solve(a, x, b, m, opt)
//	w.End(res)
//
// Begin/End are optional: a progress callback on an idle watcher
// auto-begins an unlabelled solve, so campaign drivers can wire only
// ProgressDetail.
// All methods are nil-safe and safe for concurrent use with State and
// Subscribe.
type SolveWatcher struct {
	mu    sync.Mutex
	state SolveState
	start time.Time
	subs  map[chan SolveState]struct{}
	now   func() time.Time // test hook
}

// NewSolveWatcher returns an idle watcher.
func NewSolveWatcher() *SolveWatcher {
	return &SolveWatcher{subs: map[chan SolveState]struct{}{}, now: time.Now}
}

// Begin marks the start of a solve. Resets any previous solve's state.
func (w *SolveWatcher) Begin(label string, tol float64, maxIter int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.state.Seq
	w.state = SolveState{Active: true, Label: label, Tol: tol, MaxIter: maxIter, RelRes: 1, Seq: seq}
	w.start = w.now()
	w.publishLocked()
}

// ProgressDetail is a krylov.Options.ProgressDetail-compatible callback.
func (w *SolveWatcher) ProgressDetail(info krylov.ProgressInfo) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.state.Active || w.state.Done {
		// Auto-begin: a campaign driver wired only the progress hook.
		seq := w.state.Seq
		label := w.state.Label
		w.state = SolveState{Active: true, Label: label, RelRes: 1, Seq: seq}
		w.start = w.now()
	}
	s := &w.state
	s.Iteration = info.Iteration
	s.RelRes = info.RelRes
	s.Converged = info.Converged
	if info.Status != krylov.StatusUnknown {
		s.Status = info.Status.String()
	}
	s.SpMVNS = info.Timing.SpMV.Nanoseconds()
	s.PrecondNS = info.Timing.Precond.Nanoseconds()
	s.BLAS1NS = info.Timing.BLAS1.Nanoseconds()
	elapsed := w.now().Sub(w.start)
	s.ElapsedNS = elapsed.Nanoseconds()
	if elapsed > 0 {
		s.ItersPerSec = float64(s.Iteration) / elapsed.Seconds()
	}
	s.ETAIterations, s.ETANS = etaOf(s)
	w.publishLocked()
}

// etaOf extrapolates remaining iterations and wall time log-linearly.
func etaOf(s *SolveState) (int, int64) {
	if s.Converged || s.Iteration <= 0 || s.Tol <= 0 ||
		s.RelRes <= 0 || s.RelRes >= 1 || s.RelRes <= s.Tol {
		return 0, 0
	}
	need := float64(s.Iteration) * math.Log(s.Tol) / math.Log(s.RelRes)
	// The epsilon keeps an exact integer estimate from ceiling one up when
	// the log ratio lands a few ulps above it.
	iters := int(math.Ceil(need-1e-9)) - s.Iteration
	if iters < 0 {
		iters = 0
	}
	if s.MaxIter > 0 && s.Iteration+iters > s.MaxIter {
		iters = s.MaxIter - s.Iteration
	}
	var ns int64
	if s.ItersPerSec > 0 {
		ns = int64(float64(iters) / s.ItersPerSec * 1e9)
	}
	return iters, ns
}

// End marks the current solve finished with its result.
func (w *SolveWatcher) End(res krylov.Result) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &w.state
	s.Active = false
	s.Done = true
	s.Iteration = res.Iterations
	s.RelRes = res.RelResidual
	s.Converged = res.Converged
	if res.Status != krylov.StatusUnknown {
		s.Status = res.Status.String()
	}
	s.ETAIterations, s.ETANS = 0, 0
	if t := res.Timing; t != (krylov.Timing{}) {
		s.SpMVNS = t.SpMV.Nanoseconds()
		s.PrecondNS = t.Precond.Nanoseconds()
		s.BLAS1NS = t.BLAS1.Nanoseconds()
	}
	if !w.start.IsZero() {
		s.ElapsedNS = w.now().Sub(w.start).Nanoseconds()
	}
	w.publishLocked()
}

// State returns the current solve state (zero value for a nil watcher).
func (w *SolveWatcher) State() SolveState {
	if w == nil {
		return SolveState{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// Subscribe returns a channel of state updates and a cancel function. The
// current state is delivered first. Slow subscribers never block the solver:
// when a subscriber's buffer is full the oldest pending update is dropped so
// the latest state always gets through.
func (w *SolveWatcher) Subscribe() (<-chan SolveState, func()) {
	if w == nil {
		ch := make(chan SolveState)
		close(ch)
		return ch, func() {}
	}
	ch := make(chan SolveState, 64)
	w.mu.Lock()
	w.subs[ch] = struct{}{}
	ch <- w.state // buffered, cannot block
	w.mu.Unlock()
	cancel := func() {
		w.mu.Lock()
		if _, ok := w.subs[ch]; ok {
			delete(w.subs, ch)
			close(ch)
		}
		w.mu.Unlock()
	}
	return ch, cancel
}

// publishLocked bumps Seq and fans the state out to subscribers. Caller
// holds w.mu.
func (w *SolveWatcher) publishLocked() {
	w.state.Seq++
	for ch := range w.subs {
		select {
		case ch <- w.state:
		default:
			// Buffer full: drop the oldest update, keep the newest.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- w.state:
			default:
			}
		}
	}
}
