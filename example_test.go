package fsaie_test

import (
	"fmt"

	fsaie "repro"
	"repro/internal/matgen"
)

// Example builds the cache-aware FSAIE(full) preconditioner for a small
// Poisson system and solves it with PCG.
func Example() {
	a := matgen.Laplace2D(24, 24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)

	opts := fsaie.DefaultOptions() // FSAIE(full), filter 0.01, 64-byte lines
	p, err := fsaie.New(a, opts)
	if err != nil {
		panic(err)
	}
	res := fsaie.Solve(a, x, b, p, fsaie.SolverDefaults())
	fmt.Println("converged:", res.Converged)
	// Output:
	// converged: true
}

// ExampleNew_variants contrasts the three preconditioner constructions of
// the paper's evaluation on one matrix.
func ExampleNew_variants() {
	a := matgen.Laplace2D(32, 32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	for _, v := range []fsaie.Variant{fsaie.FSAI, fsaie.FSAIESp, fsaie.FSAIEFull} {
		opts := fsaie.DefaultOptions()
		opts.Variant = v
		p, err := fsaie.New(a, opts)
		if err != nil {
			panic(err)
		}
		res := fsaie.Solve(a, x, b, p, fsaie.SolverDefaults())
		fmt.Printf("%-12v converged=%v extension>=0: %v\n", v, res.Converged, p.ExtensionPct() >= 0)
	}
	// Output:
	// FSAI         converged=true extension>=0: true
	// FSAIE(sp)    converged=true extension>=0: true
	// FSAIE(full)  converged=true extension>=0: true
}

// ExampleAllocAligned pins a vector to a chosen cache-line offset so that
// pattern extensions are reproducible across runs.
func ExampleAllocAligned() {
	x := fsaie.AllocAligned(100, 64, 3)
	fmt.Println("offset:", fsaie.AlignOf(x, 64))
	// Output:
	// offset: 3
}

// ExampleNew_adaptive grows the base pattern dynamically (FSPAI-style) and
// then cache-extends it — the Section 8 composition.
func ExampleNew_adaptive() {
	a := matgen.Laplace2D(16, 16)
	opts := fsaie.DefaultOptions()
	opts.Variant = fsaie.FSAIESp
	opts.AdaptiveMaxPerRow = 6
	p, err := fsaie.New(a, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("adaptive entries kept under extension:", p.BasePattern.SubsetOf(p.FinalPattern))
	// Output:
	// adaptive entries kept under extension: true
}
