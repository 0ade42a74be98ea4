package service_test

import (
	"context"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/service"
)

// fsaid's /healthz reflects daemon state only — memory degradation and the
// SLO budget. Jobs run concurrently, so the outcome of one client's solve
// must not decide the health of the whole daemon (nor the cluster router's
// ejection of it).

// TestHealthzIgnoresNonConvergedSolve: a max_iter 1 solve ends without
// converging, and /healthz still answers 200 ok; /debug/solve reports the
// idle state instead of that job's.
func TestHealthzIgnoresNonConvergedSolve(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "jacobi", MaxIter: 1})
	if err != nil || resp.Converged {
		t.Fatalf("max_iter 1 solve: %+v err=%v, want a non-converged answer", resp, err)
	}
	var h obs.Health
	if getJSON(t, c.Base()+"/healthz", &h); h.Status != obs.HealthOK {
		t.Fatalf("/healthz after a non-converged solve: %+v, want ok", h)
	}
	var st obs.SolveState
	if getJSON(t, c.Base()+"/debug/solve", &st); st != (obs.SolveState{}) {
		t.Fatalf("/debug/solve: %+v, want the idle state", st)
	}
}

// TestHealthzIgnoresRecoveredResilientSolve: a resilient job whose first
// rung breaks on an injected NaN recovers on a fallback rung, and /healthz
// stays ok: the response already tells that client which rung answered.
func TestHealthzIgnoresRecoveredResilientSolve(t *testing.T) {
	_, c := newTestServer(t, service.Options{})
	ctx := context.Background()
	info, err := c.RegisterMatgen(ctx, "lap64x64", "")
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(21).WithSpMVNaN(4)
	restore := faultinject.Activate(in)
	resp, err := c.Solve(ctx, service.SolveRequest{Matrix: info.Fingerprint, Precond: "fsaie", Resilient: true})
	restore()
	if err != nil || !resp.Converged || resp.Precond == "fsaie" {
		t.Fatalf("resilient solve: %+v err=%v, want convergence on a fallback rung", resp, err)
	}
	if ev := in.Events(); len(ev) != 1 || ev[0].Site != faultinject.SiteSpMVOut {
		t.Fatalf("injected faults: %v, want one NaN in an SpMV output", ev)
	}
	var h obs.Health
	if getJSON(t, c.Base()+"/healthz", &h); h.Status != obs.HealthOK {
		t.Fatalf("/healthz after a recovered solve: %+v, want ok", h)
	}
}
