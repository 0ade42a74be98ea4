package service

import (
	"context"
	"testing"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/obs"
)

// TestSolveOptionsPublishOneStatePerIteration: a solve wired with the
// daemon's PCG options publishes exactly one live-watcher state per
// iteration, and every mid-solve state carries the running kernel timings
// (a second, timing-less publish per iteration would make /debug/solve
// flicker between real and zero spmv_ns).
func TestSolveOptionsPublishOneStatePerIteration(t *testing.T) {
	s := New(Options{Workers: 1})
	a := matgen.Laplace2D(30, 30)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	req := &SolveRequest{Tol: 1e-8, MaxIter: 1000}

	ch, cancel := s.watcher.Subscribe()
	initial := <-ch
	done := make(chan []obs.SolveState)
	go func() {
		var got []obs.SolveState
		for st := range ch {
			got = append(got, st)
		}
		done <- got
	}()
	s.watcher.Begin("lap30x30/none", req.Tol, req.MaxIter)
	res := krylov.Solve(a, make([]float64, a.Rows), b, nil, s.solveOptions(context.Background(), req))
	s.watcher.End(res)
	cancel()
	got := <-done

	if !res.Converged || res.Iterations < 10 {
		t.Fatalf("solve: %+v", res)
	}
	if len(got) == 0 {
		t.Fatal("subscriber received no states")
	}
	last := got[len(got)-1]
	if want := initial.Seq + uint64(res.Iterations) + 2; last.Seq != want {
		t.Fatalf("seq advanced by %d over a %d-iteration solve, want iterations+2 = %d (Begin, one per iteration, End)",
			last.Seq-initial.Seq, res.Iterations, res.Iterations+2)
	}
	for _, st := range got {
		if st.Iteration > 1 && st.SpMVNS == 0 {
			t.Fatalf("state seq=%d at iteration %d has spmv_ns = 0", st.Seq, st.Iteration)
		}
	}
}
