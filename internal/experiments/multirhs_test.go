package experiments

import (
	"testing"

	"repro/internal/matgen"
)

// TestRunMultiRHS runs the -nrhs campaign on one quick-suite matrix: the
// block solve's columns must reproduce the scalar solves bitwise, so the
// block sweeps equal the slowest scalar solve's iterations, and the report
// carries one scalar and one block entry, each stamped with the block width.
func TestRunMultiRHS(t *testing.T) {
	spec, ok := matgen.ByName("lap64x64")
	if !ok {
		t.Fatal("lap64x64 missing from the suite")
	}
	const k = 3
	r, err := RunMultiRHS(spec, k, MultiRHSOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.BitIdentical {
		t.Fatal("block columns differ bitwise from their scalar solves")
	}
	if !r.Converged {
		t.Fatal("multi-RHS solves did not converge")
	}
	if r.BlockSweeps != r.ScalarIters || r.ScalarIters <= 0 {
		t.Fatalf("block sweeps %d, scalar iterations %d: want equal and positive", r.BlockSweeps, r.ScalarIters)
	}

	entries := r.ReportEntries()
	if len(entries) != 2 {
		t.Fatalf("report entries = %d, want 2", len(entries))
	}
	for i, want := range []string{"pcg[nrhs=3]", "block-pcg[nrhs=3]"} {
		e := entries[i]
		if e.Variant != want || e.NRHS != k || e.Matrix != spec.Name {
			t.Fatalf("entry %d = %s/%s nrhs=%d, want %s/%s nrhs=%d",
				i, e.Matrix, e.Variant, e.NRHS, spec.Name, want, k)
		}
	}
}
