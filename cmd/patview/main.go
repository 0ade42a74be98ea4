// Command patview renders the cache-friendly pattern-extension process as
// ASCII art — the analogue of the paper's Figure 1: the initial lower
// triangular pattern, the cache-friendly extension, and the extension after
// precalculation filtering.
//
// Usage:
//
//	patview [-n 64] [-line 64] [-align 0] [-filter 0.01] [-matrix lap|band|wathen]
//
// Legend: '#' initial entry, '+' surviving extension entry, '.' extension
// entry removed by the filter.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	fsai "repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

func main() {
	var (
		n      = flag.Int("n", 64, "matrix size (grid side is derived per matrix kind)")
		line   = flag.Int("line", 64, "cache line size in bytes")
		align  = flag.Int("align", 0, "element offset of x[0] within its cache line")
		filter = flag.Float64("filter", 0.01, "extension filtering threshold")
		kind   = flag.String("matrix", "lap", "matrix kind: lap, band, wathen")
	)
	flag.Parse()

	a := makeMatrix(*kind, *n)
	if a.Rows > 96 {
		fmt.Fprintf(os.Stderr, "patview: %d rows is too large to draw; choose -n <= 96\n", a.Rows)
		os.Exit(1)
	}

	base := fsai.InitialPattern(a, 0, 1, 1)
	elems := *line / 8
	ext := fsai.ExtendPattern(base, elems, *align, fsai.ClipLower, 0, 1)

	opts := fsai.DefaultOptions()
	opts.Variant = fsai.VariantSp
	opts.Filter = *filter
	opts.LineBytes = *line
	opts.AlignElems = *align
	p, err := fsai.Compute(a, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "patview: %v\n", err)
		os.Exit(1)
	}
	final := p.FinalPattern

	fmt.Printf("Matrix %q: %d x %d, nnz=%d; line=%dB (%d elems), align=%d, filter=%g\n\n",
		*kind, a.Rows, a.Cols, a.NNZ(), *line, elems, *align, *filter)
	fmt.Printf("Initial lower-triangular pattern: %d entries\n", base.NNZ())
	fmt.Printf("Cache-friendly extension:         %d entries (+%.1f%%)\n", ext.NNZ(),
		100*float64(ext.NNZ()-base.NNZ())/float64(base.NNZ()))
	fmt.Printf("After precalculation filtering:   %d entries (+%.1f%%)\n\n", final.NNZ(),
		100*float64(final.NNZ()-base.NNZ())/float64(base.NNZ()))
	fmt.Println(render(base, ext, final))
}

func makeMatrix(kind string, n int) *sparse.CSR {
	switch kind {
	case "lap":
		side := 1
		for side*side < n {
			side++
		}
		return matgen.Laplace2D(side, side)
	case "band":
		return matgen.BandedSPD(n, 6, 1, 42)
	case "wathen":
		side := 1
		for 3*side*side+4*side+1 < n {
			side++
		}
		return matgen.Wathen(side, side, 42)
	default:
		fmt.Fprintf(os.Stderr, "patview: unknown matrix kind %q\n", kind)
		os.Exit(1)
		return nil
	}
}

// render draws the three-layer pattern: '#' base, '+' kept extension, '.'
// filtered-out extension, ' ' empty.
func render(base, ext, final *pattern.Pattern) string {
	var sb strings.Builder
	for i := 0; i < base.Rows; i++ {
		for j := 0; j <= i; j++ {
			switch {
			case base.Contains(i, j):
				sb.WriteByte('#')
			case final.Contains(i, j):
				sb.WriteByte('+')
			case ext.Contains(i, j):
				sb.WriteByte('.')
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
