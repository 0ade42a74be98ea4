package fsai

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/matgen"
	"repro/internal/pattern"
)

// TestFullExtensionTransposedFixpoint checks the structural guarantee of
// Algorithm 4's two-step construction (Section 6): after the second
// extension pass (on the transposed pattern) with filter 0, the *transposed*
// final pattern is cache-line closed — extending it again adds nothing. A
// simultaneous one-shot extension of G and Gᵀ could not guarantee this.
func TestFullExtensionTransposedFixpoint(t *testing.T) {
	for _, name := range []string{"lap64x64", "wathen20x20", "band1200-bw8-d0.25"} {
		spec, ok := matgen.ByName(name)
		if !ok {
			t.Fatal("missing spec")
		}
		a := spec.Generate()
		opts := DefaultOptions()
		opts.Filter = 0 // no filtering: the pure structural construction
		opts.MaxRowNNZ = 0
		p, err := Compute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		final := p.FinalPattern
		tp := final.Transpose()
		again := ExtendPattern(tp, 8, 0, ClipUpper, 0, 1)
		if !again.Equal(tp) {
			t.Errorf("%s: transposed final pattern is not line-closed: %d -> %d entries",
				name, tp.NNZ(), again.NNZ())
		}
	}
}

// TestFullCoversBothProductsLineVisits verifies the performance intent of
// the two-sided construction: per stored entry, FSAIE(full)'s Gᵀ sweep
// touches no more x lines than FSAIE(sp)'s — the temporal+spatial coverage
// of Section 6.
func TestFullCoversBothProductsLineVisits(t *testing.T) {
	spec, _ := matgen.ByName("lap64x64")
	a := spec.Generate()
	lvPerNNZ := func(v Variant) (g, gt float64) {
		opts := DefaultOptions()
		opts.Variant = v
		opts.Filter = 0
		opts.MaxRowNNZ = 0
		p, err := Compute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		gp := pattern.FromCSR(p.G)
		n := float64(p.NNZ())
		return float64(cachesim.CountLineVisits(gp, 8, 0)) / n,
			float64(cachesim.CountLineVisits(gp.Transpose(), 8, 0)) / n
	}
	spG, spGT := lvPerNNZ(VariantSp)
	fuG, fuGT := lvPerNNZ(VariantFull)
	t.Logf("line visits per entry: sp G=%.3f GT=%.3f | full G=%.3f GT=%.3f", spG, spGT, fuG, fuGT)
	if fuGT > spGT+1e-12 {
		t.Errorf("full's GT sweep (%.3f visits/entry) should not exceed sp's (%.3f)", fuGT, spGT)
	}
}
