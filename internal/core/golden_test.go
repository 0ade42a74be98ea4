package fsai

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

// csrSHA hashes a CSR's row pointers, column indices and the exact bits of
// its values.
func csrSHA(m *sparse.CSR) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range m.RowPtr {
		put(uint64(v))
	}
	for _, v := range m.ColIdx {
		put(uint64(v))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func suiteMatrix(t *testing.T, name string) *sparse.CSR {
	t.Helper()
	spec, ok := matgen.ByName(name)
	if !ok {
		t.Fatalf("matgen spec %q missing", name)
	}
	return spec.Generate()
}

// TestSetupGoldenFactors pins setup's exact numerics: the final factor G
// (structure and value bits), its size and the work counts of every
// variant on four suite matrices at 1, 2 and 3 workers; the precalculated
// G of three matrices whose upper triangle is one ulp off their lower one
// (only lower(A) may reach the precalculation); and the deterministic
// numbers of the reference run. Every value was recorded from the
// dense-block precalculation the sparse local systems replaced, except
// DirectFlops at 3 workers, recorded from the serial pattern builders the
// row-chunked ones replaced.
func TestSetupGoldenFactors(t *testing.T) {
	type factor struct {
		matrix  string
		variant Variant
		filter  float64
		nnz     int
		precalc float64 // SetupStats.PrecalcFlops
		// direct is SetupStats.DirectFlops at 1, 2 and 3 workers: the
		// per-chunk partial sums of fractional m³/3 terms round differently.
		direct [3]float64
		sha    string
	}
	cases := []factor{
		{"lap64x64", VariantFSAI, 0.01, 12160, 0, [3]float64{108509.33333333342, 108509.3333333333, 108509.33333333334}, "b49d57630f86f199fc1b846e22b7ad8ee4f382e9c350a86fdeb29a497a3be843"},
		{"lap64x64", VariantFSAI, 0.1, 12160, 0, [3]float64{108509.33333333342, 108509.3333333333, 108509.33333333334}, "b49d57630f86f199fc1b846e22b7ad8ee4f382e9c350a86fdeb29a497a3be843"},
		{"lap64x64", VariantSp, 0.01, 38344, 9.2867e+06, [3]float64{2.077001333333318e+06, 2.077001333333341e+06, 2.077001333333335e+06}, "b33b30e47560150baa1daea95125582377f0c3f22d997d2110f6c9a913d56b97"},
		{"lap64x64", VariantSp, 0.1, 15688, 5.590348e+06, [3]float64{201413.33333334074, 201413.33333332965, 201413.33333333622}, "88738a123bf2db8c30b87b593001c2d3438b8c236a3615a5c0b71bc957da790c"},
		{"lap64x64", VariantFull, 0.01, 39688, 2.1553216e+07, [3]float64{2.192585333333322e+06, 2.1925853333333395e+06, 2.192585333333336e+06}, "3a36da9cba609f6e97575a39081785bb21f96b06d694f027a6d8ebe893d9e853"},
		{"lap64x64", VariantFull, 0.1, 15688, 1.1328872e+07, [3]float64{201413.33333334074, 201413.33333332965, 201413.33333333622}, "88738a123bf2db8c30b87b593001c2d3438b8c236a3615a5c0b71bc957da790c"},
		{"elas28x28-s100", VariantFSAI, 0.01, 7508, 0, [3]float64{133618.666666669, 133618.66666666558, 133618.66666666628}, "8b6527ff435ffaf02152bfadaa047bc8f5f2c1918c9330be0478b34a81356e0b"},
		{"elas28x28-s100", VariantFSAI, 0.1, 7508, 0, [3]float64{133618.666666669, 133618.66666666558, 133618.66666666628}, "8b6527ff435ffaf02152bfadaa047bc8f5f2c1918c9330be0478b34a81356e0b"},
		{"elas28x28-s100", VariantSp, 0.01, 15575, 5.35814e+06, [3]float64{969277.6666666581, 969277.6666666709, 969277.6666666665}, "2a536fcf38926de8c70f33c75396911d71549bf00063d89c1352d89bfdc84886"},
		{"elas28x28-s100", VariantSp, 0.1, 8074, 3.110394e+06, [3]float64{162121.33333333308, 162121.33333333343, 162121.33333333273}, "45424bbf694d3650aeb316d4498d28407a5bc518197f809bff3f00c8f894d99b"},
		{"elas28x28-s100", VariantFull, 0.01, 18469, 1.7540764e+07, [3]float64{1.4374403333333386e+06, 1.4374403333333307e+06, 1.4374403333333395e+06}, "747a17a62b06a7019f66f884d8fce77d3697083b70cd5cda50e73723c8ef4228"},
		{"elas28x28-s100", VariantFull, 0.1, 8244, 6.180548e+06, [3]float64{170775.99999999948, 170776.00000000026, 170775.99999999945}, "cdd4b60d7ff9c74d229ee2aae33df6f5b10107bca77a58c7f034a7324fb5f907"},
		{"circuit500-d5", VariantFSAI, 0.01, 2483, 0, [3]float64{62921.666666666686, 62921.66666666666, 62921.666666666686}, "53c713a39c226ff9cb76da94d9ecee39c258be7cfb77b19c97bd225add61b905"},
		{"circuit500-d5", VariantFSAI, 0.1, 2483, 0, [3]float64{62921.666666666686, 62921.66666666666, 62921.666666666686}, "53c713a39c226ff9cb76da94d9ecee39c258be7cfb77b19c97bd225add61b905"},
		{"circuit500-d5", VariantSp, 0.01, 5327, 5.095874e+06, [3]float64{611881.6666666664, 611881.6666666666, 611881.6666666669}, "e26afe6dcb5c669bf3e878d01d50a918811d4b02924615f9de4c16b6d8da8f54"},
		{"circuit500-d5", VariantSp, 0.1, 2483, 3.14243e+06, [3]float64{62921.666666666686, 62921.66666666666, 62921.666666666686}, "53c713a39c226ff9cb76da94d9ecee39c258be7cfb77b19c97bd225add61b905"},
		{"circuit500-d5", VariantFull, 0.01, 7272, 3.0268356e+07, [3]float64{1.545256e+06, 1.5452560000000002e+06, 1.5452559999999995e+06}, "06f37c86e11e4b677e62c264011f4e51a8adf656e4fee34bdb878ff4ba493732"},
		{"circuit500-d5", VariantFull, 0.1, 2483, 5.889446e+06, [3]float64{62921.666666666686, 62921.66666666666, 62921.666666666686}, "53c713a39c226ff9cb76da94d9ecee39c258be7cfb77b19c97bd225add61b905"},
		{"gyro-band700-bw36", VariantFSAI, 0.01, 13080, 0, [3]float64{2.2037500000000023e+06, 2.2037499999999995e+06, 2.2037499999999995e+06}, "b190d842b961c9ffdc0fd4cb777d514544102510cb4268524e9b16a9ceac6cb0"},
		{"gyro-band700-bw36", VariantFSAI, 0.1, 13080, 0, [3]float64{2.2037500000000023e+06, 2.2037499999999995e+06, 2.2037499999999995e+06}, "b190d842b961c9ffdc0fd4cb777d514544102510cb4268524e9b16a9ceac6cb0"},
		{"gyro-band700-bw36", VariantSp, 0.01, 13164, 7.383866e+06, [3]float64{2.2469920000000005e+06, 2.246992e+06, 2.2469919999999995e+06}, "ed652616cdfe17fb6cb7f1181369450a182265c05909d642a79e503932b8e97c"},
		{"gyro-band700-bw36", VariantSp, 0.1, 13080, 4.239318e+06, [3]float64{2.2037500000000023e+06, 2.2037499999999995e+06, 2.2037499999999995e+06}, "b190d842b961c9ffdc0fd4cb777d514544102510cb4268524e9b16a9ceac6cb0"},
		{"gyro-band700-bw36", VariantFull, 0.01, 13170, 1.4751388e+07, [3]float64{2.2503340000000005e+06, 2.250334e+06, 2.250334e+06}, "52fa870cd20af23d8739d0f6d1ebcf76ab95749e45579d978d2bbd3dbbc1e59c"},
		{"gyro-band700-bw36", VariantFull, 0.1, 13080, 8.45586e+06, [3]float64{2.2037500000000023e+06, 2.2037499999999995e+06, 2.2037499999999995e+06}, "b190d842b961c9ffdc0fd4cb777d514544102510cb4268524e9b16a9ceac6cb0"},
	}
	mats := map[string]*sparse.CSR{}
	for _, c := range cases {
		if mats[c.matrix] == nil {
			mats[c.matrix] = suiteMatrix(t, c.matrix)
		}
		a := mats[c.matrix]
		for wi, w := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("factor/%s/%v/f=%g/w=%d", c.matrix, c.variant, c.filter, w), func(t *testing.T) {
				o := DefaultOptions()
				o.Variant, o.Filter, o.Workers = c.variant, c.filter, w
				p, err := Compute(a, o)
				if err != nil {
					t.Fatal(err)
				}
				got := c
				got.nnz, got.precalc, got.direct[wi], got.sha = p.NNZ(), p.Stats.PrecalcFlops, p.Stats.DirectFlops, csrSHA(p.G)
				if got != c {
					t.Errorf("nnz, PrecalcFlops, DirectFlops, G = %d, %v, %v, %s; want %d, %v, %v, %s",
						got.nnz, got.precalc, got.direct[wi], got.sha, c.nnz, c.precalc, c.direct[wi], c.sha)
				}
			})
		}
	}

	precalc := []struct {
		matrix string
		flops  float64
		sha    string
	}{
		{"lap64x64", 9.2867e+06, "cce716b3a04fe583cfb9f238b455a137f20e8f8e2165c717140ac9b27701685d"},
		{"elas28x28-s100", 5.35814e+06, "2ad66865da4b585950f1f3871d8bf0a472d34ff064d1b887b687db60766bec57"},
		{"wathen20x20", 1.2624584e+07, "ebcd2244e283fb068b314054a9143fd79a3d13f39075f7c5b6bd711e9208193a"},
	}
	for _, c := range precalc {
		t.Run("precalc/"+c.matrix, func(t *testing.T) {
			a := suiteMatrix(t, c.matrix)
			for i := 0; i < a.Rows; i++ {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					if a.ColIdx[k] > i {
						a.Val[k] = math.Nextafter(a.Val[k], math.Inf(1))
					}
				}
			}
			if a.IsSymmetric(0) || !a.IsSymmetric(1e-10*a.MaxNorm()) {
				t.Fatal("perturbed matrix must be symmetric to 1e-10·max but not bitwise")
			}
			o := DefaultOptions()
			o.normalize()
			sx := ExtendPattern(InitialPattern(a, 0, 1, 1), o.LineBytes/8, 0, ClipLower, o.MaxRowNNZ, 1)
			var st SetupStats
			g, err := precalcRows(symmetricLower(a), sx, precalcTol(o.Filter), 1, &st)
			if err != nil {
				t.Fatal(err)
			}
			if sha := csrSHA(g); st.PrecalcFlops != c.flops || sha != c.sha {
				t.Errorf("PrecalcFlops, precalculated G = %v, %s; want %v, %s", st.PrecalcFlops, sha, c.flops, c.sha)
			}
		})
	}

	// The reference run: fsaisolve -precond fsaie -align 0 on
	// jump64x64-b8-j1e3 with its all-ones right-hand side.
	// scripts/obs_smoke.sh repeats it on the file `mmtool gen` writes, and
	// mmio's TestRoundTripSymmetric shows that file holds this matrix.
	t.Run("reference-run", func(t *testing.T) {
		a := suiteMatrix(t, "jump64x64-b8-j1e3")
		o := DefaultOptions()
		o.Workers = 0
		p, err := Compute(a, o)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		x := cachesim.AllocAligned(a.Rows, 64, 0)
		res := krylov.Solve(a, x, b, p, krylov.DefaultOptions())
		sim := cachesim.New(cachesim.Config{SizeBytes: 512 * 64, LineBytes: 64, Ways: 8})
		attr := cachesim.TracePreconditionAttrib(sim, pattern.FromCSR(p.G), p.BasePattern,
			cachesim.TraceOptions{AlignElems: 0, IncludeStreams: true}, 0)
		got := []uint64{uint64(p.NNZ()), uint64(res.Iterations),
			attr.G.BaseMisses, attr.G.FillMisses, attr.GT.BaseMisses, attr.GT.FillMisses}
		want := []uint64{33775, 17, 512, 0, 506, 6}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("nnz(G), iterations, G base/fill misses, Gᵀ base/fill misses = %v, want %v", got, want)
		}
		if !res.Converged {
			t.Errorf("reference run did not converge: status %v after %d iterations", res.Status, res.Iterations)
		}
	})
}
