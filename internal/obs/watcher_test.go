package obs

import (
	"testing"
	"time"

	"repro/internal/krylov"
)

func TestWatcherNilSafe(t *testing.T) {
	var w *SolveWatcher
	w.Begin("x", 1e-8, 100)
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 2, RelRes: 0.25})
	w.End(krylov.Result{})
	if st := w.State(); st != (SolveState{}) {
		t.Errorf("nil watcher state = %+v, want zero", st)
	}
	ch, cancel := w.Subscribe()
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil watcher subscription should be closed")
	}
}

func TestWatcherLifecycle(t *testing.T) {
	w := NewSolveWatcher()
	if st := w.State(); st.Active || st.Done {
		t.Fatalf("fresh watcher not idle: %+v", st)
	}
	w.Begin("lap/FSAI", 1e-8, 500)
	st := w.State()
	if !st.Active || st.Done || st.Label != "lap/FSAI" || st.Tol != 1e-8 || st.MaxIter != 500 || st.RelRes != 1 {
		t.Fatalf("post-Begin state: %+v", st)
	}
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 1, RelRes: 1e-2})
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 2, RelRes: 1e-4})
	st = w.State()
	if st.Iteration != 2 || st.RelRes != 1e-4 {
		t.Fatalf("post-progress state: %+v", st)
	}
	// Convergence is geometric at 1e-2/iter; tol 1e-8 needs 4 iterations
	// total, so the log-linear extrapolation says 2 more.
	if st.ETAIterations != 2 {
		t.Errorf("ETAIterations = %d, want 2", st.ETAIterations)
	}
	if st.ElapsedNS <= 0 {
		t.Errorf("ElapsedNS = %d, want > 0", st.ElapsedNS)
	}
	w.End(krylov.Result{Iterations: 4, Converged: true, RelResidual: 5e-9,
		Timing: krylov.Timing{SpMV: 3 * time.Millisecond, Precond: 2 * time.Millisecond, BLAS1: time.Millisecond}})
	st = w.State()
	if st.Active || !st.Done || !st.Converged || st.Iteration != 4 || st.RelRes != 5e-9 {
		t.Fatalf("post-End state: %+v", st)
	}
	if st.ETAIterations != 0 || st.ETANS != 0 {
		t.Errorf("finished solve still has ETA: %+v", st)
	}
	if st.SpMVNS != 3e6 || st.PrecondNS != 2e6 || st.BLAS1NS != 1e6 {
		t.Errorf("timing breakdown: %+v", st)
	}
}

func TestWatcherAutoBegin(t *testing.T) {
	// Campaign drivers wire only the progress hook; the watcher must
	// activate itself, and a new solve after End must reset Done.
	w := NewSolveWatcher()
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 1, RelRes: 0.5})
	st := w.State()
	if !st.Active || st.Done || st.Iteration != 1 {
		t.Fatalf("auto-begin state: %+v", st)
	}
	w.End(krylov.Result{Iterations: 1, RelResidual: 0.5})
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 1, RelRes: 0.9})
	st = w.State()
	if !st.Active || st.Done || st.RelRes != 0.9 {
		t.Fatalf("re-begin after End: %+v", st)
	}
}

func TestWatcherETAClampedToMaxIter(t *testing.T) {
	w := NewSolveWatcher()
	w.Begin("slow", 1e-8, 10)
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 5, RelRes: 0.99}) // would extrapolate to thousands of iterations
	st := w.State()
	if st.ETAIterations != 5 {
		t.Errorf("ETAIterations = %d, want clamp to MaxIter-Iteration = 5", st.ETAIterations)
	}
}

func TestWatcherETAUndefinedCases(t *testing.T) {
	w := NewSolveWatcher()
	w.Begin("div", 1e-8, 100)
	for _, rel := range []float64{1.5, 1.0, 0} { // diverged, stalled at 1, exact zero
		w.ProgressDetail(krylov.ProgressInfo{Iteration: 3, RelRes: rel})
		if st := w.State(); st.ETAIterations != 0 || st.ETANS != 0 {
			t.Errorf("relres=%g: ETA = (%d, %d), want zero", rel, st.ETAIterations, st.ETANS)
		}
	}
}

func TestWatcherSubscribe(t *testing.T) {
	w := NewSolveWatcher()
	ch, cancel := w.Subscribe()
	defer cancel()
	first := <-ch
	if first.Active || first.Seq != 0 {
		t.Fatalf("initial snapshot: %+v", first)
	}
	w.Begin("sub", 1e-8, 10)
	w.ProgressDetail(krylov.ProgressInfo{Iteration: 1, RelRes: 0.5})
	w.End(krylov.Result{Iterations: 1, RelResidual: 0.5})
	var got []SolveState
	for len(got) < 3 {
		got = append(got, <-ch)
	}
	if !got[0].Active || got[1].Iteration != 1 || !got[2].Done {
		t.Fatalf("update sequence: %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Errorf("Seq not increasing: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	cancel()
	cancel() // double-cancel is safe
	if _, ok := <-ch; ok {
		// Drain whatever was buffered before close.
		for range ch {
		}
	}
}

func TestWatcherSlowSubscriberKeepsLatest(t *testing.T) {
	w := NewSolveWatcher()
	ch, cancel := w.Subscribe()
	defer cancel()
	w.Begin("burst", 1e-8, 1000)
	for i := 1; i <= 500; i++ { // far beyond the 64-entry buffer
		w.ProgressDetail(krylov.ProgressInfo{Iteration: i, RelRes: 1.0 / float64(i+1)})
	}
	var last SolveState
	for {
		select {
		case st := <-ch:
			last = st
			continue
		default:
		}
		break
	}
	if last.Iteration != 500 {
		t.Errorf("latest update lost under overflow: got iteration %d, want 500", last.Iteration)
	}
}
