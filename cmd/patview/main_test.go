package main

import (
	"strings"
	"testing"

	fsai "repro/internal/core"
)

func TestMakeMatrixKinds(t *testing.T) {
	for _, kind := range []string{"lap", "band", "wathen"} {
		a := makeMatrix(kind, 64)
		if a.Rows < 16 {
			t.Errorf("%s: only %d rows", kind, a.Rows)
		}
		if !a.IsSymmetric(1e-10) {
			t.Errorf("%s: not symmetric", kind)
		}
	}
}

func TestRenderLegend(t *testing.T) {
	a := makeMatrix("lap", 36)
	base := fsai.InitialPattern(a, 0, 1, 1)
	ext := fsai.ExtendPattern(base, 8, 0, fsai.ClipLower, 0, 1)
	opts := fsai.DefaultOptions()
	opts.Variant = fsai.VariantSp
	p, err := fsai.Compute(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := render(base, ext, p.FinalPattern)
	if !strings.Contains(out, "#") {
		t.Error("no base entries rendered")
	}
	if strings.Count(out, "\n") != a.Rows {
		t.Errorf("want %d lines, got %d", a.Rows, strings.Count(out, "\n"))
	}
	// Row i has at most i+1 glyphs (lower triangle).
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(line) > i+1 {
			t.Fatalf("row %d too wide: %d", i, len(line))
		}
	}
}
