package experiments

import (
	"strings"
	"testing"

	fsai "repro/internal/core"
	"repro/internal/matgen"
)

func ablationSpec(t *testing.T) matgen.Spec {
	t.Helper()
	spec, ok := matgen.ByName("jump56x56-b4-j1e4")
	if !ok {
		t.Fatal("missing ablation spec")
	}
	return spec
}

func TestAblationAlignment(t *testing.T) {
	out, err := AblationAlignment(ablationSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "\n") < 9 { // header + 8 alignments
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "align") {
		t.Error("header missing")
	}
}

func TestAblationLineSize(t *testing.T) {
	out, err := AblationLineSize(ablationSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"32", "64", "128", "256", "512"} {
		if !strings.Contains(out, want) {
			t.Errorf("line size %s missing:\n%s", want, out)
		}
	}
}

// TestLineSizeMonotonicity asserts the numeric property behind the sweep:
// larger cache lines admit weakly more (filtered) fill-in.
func TestLineSizeMonotonicity(t *testing.T) {
	a := ablationSpec(t).Generate()
	prevNNZ := 0
	for _, lineBytes := range []int{32, 64, 128, 256} {
		opts := fsai.DefaultOptions()
		opts.LineBytes = lineBytes
		opts.Filter = 0 // unfiltered: admissibility alone
		p, err := fsai.Compute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.NNZ() < prevNNZ {
			t.Errorf("line=%dB: nnz %d < previous %d", lineBytes, p.NNZ(), prevNNZ)
		}
		prevNNZ = p.NNZ()
	}
}

func TestAblationPatternPower(t *testing.T) {
	out, err := AblationPatternPower(ablationSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "FSAIE(full)") != 3 {
		t.Errorf("want 3 powers x FSAIE rows:\n%s", out)
	}
}

func TestAblationPreconditioners(t *testing.T) {
	out, err := AblationPreconditioners(matgen.QuickSuite()[:3])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plain CG", "Jacobi", "IC(0)", "FSAIE(full)"} {
		if !strings.Contains(out, want) {
			t.Errorf("column %s missing", want)
		}
	}
	if strings.Contains(out, "n/c") {
		t.Errorf("a preconditioned solve failed to converge:\n%s", out)
	}
}

// TestAblationAdaptive pins the adaptive ablation's rows as committed in
// docs/ablation_output.txt: iterations and nnz(G) of the static and the
// dynamic base patterns, each without and with the cache extension, on the
// reference thermal matrix.
func TestAblationAdaptive(t *testing.T) {
	spec, ok := matgen.ByName("jump64x64-b8-j1e3")
	if !ok {
		t.Fatal("missing reference spec")
	}
	out, err := AblationAdaptive(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		"static lower(A) (FSAI)                   20      12160\n",
		"static + cache ext (FSAIE)               16      33775\n",
		"dynamic greedy (FSPAI-like)              13      32573\n",
		"dynamic + cache ext                      11      55093\n",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("row %q missing:\n%s", row, out)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	out, err := AblationOrdering(ablationSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"natural", "rcm", "random"} {
		if !strings.Contains(out, want) {
			t.Errorf("ordering %s missing:\n%s", want, out)
		}
	}
}

func TestAblationFigure3Histogram(t *testing.T) {
	out, err := AblationFigure3Histogram(matgen.QuickSuite()[:3])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "line=") != 2 {
		t.Errorf("want both line sizes:\n%s", out)
	}
}

func TestAblationFEM(t *testing.T) {
	out, err := AblationFEM()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"poisson-graded", "diffusion-jump", "elasticity-clamped", "mass", "FSAIE it"} {
		if !strings.Contains(out, want) {
			t.Errorf("FEM ablation missing %q:\n%s", want, out)
		}
	}
}
