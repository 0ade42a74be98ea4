package sparse_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// sameBits reports the first row where MulVec and the Go row loop differ
// on m and x, or -1.
func sameBits(m *sparse.CSR, x []float64) int {
	y, ref := make([]float64, m.Rows), make([]float64, m.Rows)
	m.MulVec(y, x)
	m.MulVecGo(ref, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			return i
		}
	}
	return -1
}

func normalVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestSpMVBodySuiteBitIdentical holds MulVec to the Go row loop bit for bit
// on A of all 72 suite matrices and on G and Gᵀ of the QuickSuite's FSAI
// and FSAIE(full) factors: the three sweeps of a PCG iteration.
func TestSpMVBodySuiteBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	quick := map[string]bool{}
	for _, s := range matgen.QuickSuite() {
		quick[s.Name] = true
	}
	for _, s := range matgen.Suite() {
		a := s.Generate()
		if i := sameBits(a, normalVec(rng, a.Cols)); i >= 0 {
			t.Fatalf("%s: A row %d differs", s.Name, i)
		}
		if !quick[s.Name] {
			continue
		}
		for _, v := range []fsai.Variant{fsai.VariantFSAI, fsai.VariantFull} {
			opt := fsai.DefaultOptions()
			opt.Variant = v
			p, err := fsai.Compute(a, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", s.Name, v, err)
			}
			for name, f := range map[string]*sparse.CSR{"G": p.G, "Gᵀ": p.GT} {
				if i := sameBits(f, normalVec(rng, f.Cols)); i >= 0 {
					t.Fatalf("%s %v: %s row %d differs", s.Name, v, name, i)
				}
			}
		}
	}
}

// BenchmarkSpMVBody times one serial sweep of A, G and Gᵀ (FSAIE(full),
// filter 0.01) on lap64x64 and on Laplace3D(48,48,48), large-warm's
// Laplacian, once on the Go row loop and once on MulVec's. The ratio of a
// go and an asm line is the assembly body's gain on that sweep; on a
// GOARCH without an assembly body the asm lines are skipped. Each line
// starts from a collected heap and one untimed sweep, so that at the few
// iterations of make bench-smoke the setup's garbage and cold caches do
// not land in the timed ones.
func BenchmarkSpMVBody(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"lap64x64", matgen.Laplace2D(64, 64)},
		{"lap3d48", matgen.Laplace3D(48, 48, 48)},
	} {
		opt := fsai.DefaultOptions()
		opt.Workers = 0
		p, err := fsai.Compute(c.a, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []struct {
			name string
			m    *sparse.CSR
		}{{"A", c.a}, {"G", p.G}, {"GT", p.GT}} {
			m := op.m
			x := normalVec(rand.New(rand.NewSource(1)), m.Cols)
			y := make([]float64, m.Rows)
			for _, body := range []struct {
				name string
				mul  func(y, x []float64)
			}{{"go", m.MulVecGo}, {"asm", m.MulVec}} {
				b.Run(c.name+"/"+op.name+"/"+body.name, func(b *testing.B) {
					if body.name == "asm" && runtime.GOARCH != "amd64" {
						b.Skip("no assembly row loop on " + runtime.GOARCH)
					}
					b.SetBytes(m.StreamBytes())
					b.ReportAllocs()
					runtime.GC()
					body.mul(y, x)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body.mul(y, x)
					}
				})
			}
		}
	}
}
