package experiments

import (
	"fmt"
	"testing"

	"repro/internal/matgen"
)

// TestRunMultiRHS runs the -nrhs campaign: the block solve's columns must
// reproduce the scalar solves bitwise, so the block sweeps equal the slowest
// scalar solve's iterations, and the report carries one converged scalar and
// one converged block entry, each stamped with the block width. Iterations
// and nnz(G) are pinned exactly; the jump64x64-b8-j1e3 row is the default
// `fsaibench -nrhs 8` run.
func TestRunMultiRHS(t *testing.T) {
	for _, tc := range []struct {
		matrix         string
		k, iters, nnzG int
	}{
		{"lap64x64", 3, 91, 39688},
		{"jump64x64-b8-j1e3", 8, 16, 33775},
	} {
		t.Run(fmt.Sprintf("%s/k=%d", tc.matrix, tc.k), func(t *testing.T) {
			spec, ok := matgen.ByName(tc.matrix)
			if !ok {
				t.Fatalf("%s missing from the suite", tc.matrix)
			}
			r, err := RunMultiRHS(spec, tc.k, MultiRHSOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !r.BitIdentical {
				t.Fatal("block columns differ bitwise from their scalar solves")
			}
			if !r.Converged {
				t.Fatal("multi-RHS solves did not converge")
			}
			if r.ScalarIters != tc.iters || r.BlockSweeps != tc.iters || r.NNZG != tc.nnzG {
				t.Fatalf("scalar iterations %d, block sweeps %d, nnz(G) %d; want %d, %d, %d",
					r.ScalarIters, r.BlockSweeps, r.NNZG, tc.iters, tc.iters, tc.nnzG)
			}

			entries := r.ReportEntries()
			if len(entries) != 2 {
				t.Fatalf("report entries = %d, want 2", len(entries))
			}
			type entry struct {
				matrix, variant   string
				nrhs, iters, nnzG int
				converged         bool
			}
			for i, variant := range []string{"pcg[nrhs=%d]", "block-pcg[nrhs=%d]"} {
				e := entries[i]
				got := entry{e.Matrix, e.Variant, e.NRHS, e.Iterations, e.NNZG, e.Converged}
				want := entry{tc.matrix, fmt.Sprintf(variant, tc.k), tc.k, tc.iters, tc.nnzG, true}
				if got != want {
					t.Fatalf("entry %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}
