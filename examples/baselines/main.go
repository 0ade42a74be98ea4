// Preconditioner landscape: the same SPD system solved with every
// preconditioner in the repository — plain CG, point/block Jacobi, SSOR,
// IC(0), static FSAI, cache-aware FSAIE(full), and the dynamic
// (FSPAI-style) adaptive pattern with and without cache extension.
//
// The table shows the trade-off the paper builds on: incomplete
// factorizations (IC(0), SSOR) minimize iterations but apply through
// inherently sequential triangular solves, while the approximate-inverse
// family applies through SpMV — trivially parallel and, with cache-aware
// patterns, increasingly accurate at almost no memory-system cost.
//
// Run with: go run ./examples/baselines
package main

import (
	"fmt"
	"time"

	fsaie "repro"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/precond"
	"repro/internal/spectral"
)

func main() {
	a := matgen.JumpCoefficient2D(72, 72, 8, 1e4, 21)
	n := a.Rows
	fmt.Printf("heterogeneous thermal system: %d unknowns, %d nonzeros\n\n", n, a.NNZ())
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	kopt := fsaie.SolverDefaults()

	fmt.Printf("%-28s %10s %12s %12s %10s\n", "preconditioner", "iterations", "setup", "solve", "apply")

	run := func(name, apply string, build func() (krylov.Preconditioner, error)) {
		t0 := time.Now()
		m, err := build()
		setup := time.Since(t0)
		if err != nil {
			fmt.Printf("%-28s %10s\n", name, "setup-fail")
			return
		}
		t0 = time.Now()
		res := krylov.Solve(a, x, b, m, kopt)
		solve := time.Since(t0)
		iters := fmt.Sprintf("%d", res.Iterations)
		if !res.Converged {
			iters = "n/c"
		}
		fmt.Printf("%-28s %10s %10.1fms %10.1fms %10s\n",
			name, iters, ms(setup), ms(solve), apply)
	}

	run("none (plain CG)", "-", func() (krylov.Preconditioner, error) { return krylov.Identity{}, nil })
	run("Jacobi", "scale", func() (krylov.Preconditioner, error) { return krylov.NewJacobi(a), nil })
	run("block-Jacobi (16)", "dense", func() (krylov.Preconditioner, error) { return precond.NewBlockJacobi(a, 16) })
	run("SSOR (w=1)", "tri-solve", func() (krylov.Preconditioner, error) { return precond.NewSSOR(a, 1.0) })
	run("IC(0)", "tri-solve", func() (krylov.Preconditioner, error) { return precond.NewIC0(a) })
	run("FSAI (static)", "SpMV", func() (krylov.Preconditioner, error) {
		o := fsaie.DefaultOptions()
		o.Variant = fsaie.FSAI
		return fsaie.New(a, o)
	})
	run("FSAIE(full) f=0.01", "SpMV", func() (krylov.Preconditioner, error) {
		return fsaie.New(a, fsaie.DefaultOptions())
	})
	adaptive := fsaie.DefaultOptions()
	adaptive.AdaptiveMaxPerRow = 8
	run("adaptive (FSPAI-like)", "SpMV", func() (krylov.Preconditioner, error) {
		o := adaptive
		o.Variant = fsaie.FSAI
		return fsaie.New(a, o)
	})
	run("adaptive + cache ext", "SpMV", func() (krylov.Preconditioner, error) {
		o := adaptive
		o.Variant = fsaie.FSAIESp
		return fsaie.New(a, o)
	})
	run("Chebyshev deg=8", "8x SpMV", func() (krylov.Preconditioner, error) {
		ext, err := spectral.CondOfMatrix(a, 60)
		if err != nil {
			return nil, err
		}
		return precond.NewChebyshev(a, 8, ext.Min*0.3, ext.Max*1.05)
	})

	fmt.Println("\nChebyshev also applies via SpMV but needs tight spectrum bounds —",
		"\non this heterogeneous matrix the Lanczos λmin estimate is loose and",
		"\nthe polynomial barely helps, while FSAI needs no spectral input.")
	fmt.Println("\n'apply' is the kernel the preconditioner needs per iteration:",
		"\ntri-solve is sequential; SpMV parallelizes — the paper's motivation",
		"\nfor (cache-aware) factorized sparse approximate inverses.")
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
