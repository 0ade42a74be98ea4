package fsai

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

// The serial oracles below are the setup's pattern builders and transposes
// as they were before they ran on row chunks; the chunked builders must
// reproduce them exactly at every worker count.

// serialInitialPattern is FromCSR → Power → Lower → WithDiagonal.
func serialInitialPattern(a *sparse.CSR, tau float64, power int) *pattern.Pattern {
	at := a
	if tau > 0 {
		at = a.Threshold(tau)
	}
	p := pattern.FromCSR(at)
	if power > 1 {
		p = p.Power(power)
	}
	lower := pattern.New(p.Rows, p.NCols)
	for i := 0; i < p.Rows; i++ {
		for _, j := range p.Row(i) {
			if j <= i {
				lower.Cols = append(lower.Cols, j)
			}
		}
		lower.RowPtr[i+1] = len(lower.Cols)
	}
	out := pattern.New(p.Rows, p.NCols)
	for i := 0; i < p.Rows; i++ {
		placed := false
		for _, j := range lower.Row(i) {
			if !placed && j > i && i < p.NCols {
				out.Cols = append(out.Cols, i)
				placed = true
			}
			if j == i {
				placed = true
			}
			out.Cols = append(out.Cols, j)
		}
		if !placed && i < p.NCols {
			out.Cols = append(out.Cols, i)
		}
		out.RowPtr[i+1] = len(out.Cols)
	}
	return out
}

// serialExtendPattern is Algorithm 3 building each row's block list and
// merging it with the row afterwards.
func serialExtendPattern(s *pattern.Pattern, elemsPerLine, alignElems int, clip Clip, maxRow int) *pattern.Pattern {
	admits := func(i, j int) bool {
		switch clip {
		case ClipLower:
			return j <= i
		case ClipUpper:
			return j >= i
		default:
			return true
		}
	}
	alignElems %= elemsPerLine
	out := pattern.New(s.Rows, s.NCols)
	var ext []int
	for i := 0; i < s.Rows; i++ {
		row := s.Row(i)
		ext = ext[:0]
		added := 0
		lastBlock := -1
		for _, j := range row {
			block := (j + alignElems) / elemsPerLine
			if block == lastBlock {
				continue
			}
			if maxRow > 0 && len(row)+added >= maxRow {
				break
			}
			lastBlock = block
			j0 := block*elemsPerLine - alignElems
			j1 := j0 + elemsPerLine - 1
			if j0 < 0 {
				j0 = 0
			}
			if j1 >= s.NCols {
				j1 = s.NCols - 1
			}
			for j2 := j0; j2 <= j1; j2++ {
				if admits(i, j2) {
					ext = append(ext, j2)
					if j2 != j {
						added++
					}
				}
			}
		}
		start := len(out.Cols)
		push := func(j int) {
			if n := len(out.Cols); n > start && out.Cols[n-1] == j {
				return
			}
			out.Cols = append(out.Cols, j)
		}
		ka, kb := 0, 0
		for ka < len(row) || kb < len(ext) {
			switch {
			case kb == len(ext) || (ka < len(row) && row[ka] < ext[kb]):
				push(row[ka])
				ka++
			case ka == len(row) || ext[kb] < row[ka]:
				push(ext[kb])
				kb++
			default:
				push(row[ka])
				ka++
				kb++
			}
		}
		out.RowPtr[i+1] = len(out.Cols)
	}
	return out
}

// serialFilterExtension is filterExtension appending row by row.
func serialFilterExtension(base, ext *pattern.Pattern, g *sparse.CSR, filter float64) *pattern.Pattern {
	out := pattern.New(ext.Rows, ext.NCols)
	for i := 0; i < ext.Rows; i++ {
		cols, vals := g.Row(i)
		diag := math.Abs(vals[len(vals)-1])
		b := base.Row(i)
		kb := 0
		for k, j := range cols {
			for kb < len(b) && b[kb] < j {
				kb++
			}
			if (kb < len(b) && b[kb] == j) || j == i || math.Abs(vals[k]) >= filter*diag {
				out.Cols = append(out.Cols, j)
			}
		}
		out.RowPtr[i+1] = len(out.Cols)
	}
	return out
}

// serialTransposePattern and serialTransposeCSR are the one-pass counting
// transposes.
func serialTransposePattern(p *pattern.Pattern) *pattern.Pattern {
	t := pattern.New(p.NCols, p.Rows)
	t.Cols = make([]int, len(p.Cols))
	for _, j := range p.Cols {
		t.RowPtr[j+1]++
	}
	for j := 0; j < p.NCols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := append([]int(nil), t.RowPtr...)
	for i := 0; i < p.Rows; i++ {
		for _, j := range p.Row(i) {
			t.Cols[next[j]] = i
			next[j]++
		}
	}
	return t
}

func serialTransposeCSR(m *sparse.CSR) *sparse.CSR {
	t := &sparse.CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()), Val: make([]float64, m.NNZ())}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := append([]int(nil), t.RowPtr...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			p := next[m.ColIdx[k]]
			t.ColIdx[p], t.Val[p] = i, m.Val[k]
			next[m.ColIdx[k]]++
		}
	}
	return t
}

// sameCSR reports whether a and b have equal shapes, structures and value
// bits.
func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestChunkedBuildersMatchSerial compares every row-chunked pattern builder
// and both chunked transposes with their serial oracles — patterns equal,
// CSR transposes bitwise — at 1, 2, 3 and 7 workers: InitialPattern at
// powers 1 and 2 with and without thresholding; ExtendPattern on the lower
// pattern with ClipLower and on its transpose with ClipUpper;
// the transposes of each extension; and, at the default row cap of 512,
// filterExtension of the lower extension and the transpose of a factor on
// it. The QuickSuite runs every extension at 64- and 256-byte lines, aligns
// 0 and 5 and row caps 0, 16 and 512 (the cap of 16 binds on five of its
// matrices); a grid above 32k rows runs 256-byte lines at align 5 and cap
// 512.
func TestChunkedBuildersMatchSerial(t *testing.T) {
	type extension struct{ lineBytes, align, maxRow int }
	var all []extension
	for _, lineBytes := range []int{64, 256} {
		for _, align := range []int{0, 5} {
			for _, maxRow := range []int{0, 16, 512} {
				all = append(all, extension{lineBytes, align, maxRow})
			}
		}
	}
	type matrix struct {
		name string
		a    *sparse.CSR
		exts []extension
	}
	var mats []matrix
	for _, spec := range matgen.QuickSuite() {
		mats = append(mats, matrix{spec.Name, spec.Generate(), all})
	}
	mats = append(mats, matrix{"lap192x192", matgen.Laplace2D(192, 192), []extension{{256, 5, 512}}})
	workers := []int{1, 2, 3, 7}
	rng := rand.New(rand.NewSource(20))
	for _, m := range mats {
		for _, power := range []int{1, 2} {
			for _, tau := range []float64{0, 0.3} {
				want := serialInitialPattern(m.a, tau, power)
				for _, w := range workers {
					if got := InitialPattern(m.a, tau, power, w); !got.Equal(want) {
						t.Errorf("%s: InitialPattern(τ=%g, N=%d) on %d workers differs from the serial chain", m.name, tau, power, w)
					}
				}
			}
		}
		base := serialInitialPattern(m.a, 0, 1)
		baseT := serialTransposePattern(base)
		for _, e := range m.exts {
			name := fmt.Sprintf("%s/line=%d/align=%d/maxRow=%d", m.name, e.lineBytes, e.align, e.maxRow)
			elems := e.lineBytes / 8
			lower := serialExtendPattern(base, elems, e.align, ClipLower, e.maxRow)
			upper := serialExtendPattern(baseT, elems, e.align, ClipUpper, e.maxRow)
			lowerT, upperT := serialTransposePattern(lower), serialTransposePattern(upper)
			for _, w := range workers {
				checks := []struct {
					what      string
					got, want *pattern.Pattern
				}{
					{"ExtendPattern(ClipLower)", ExtendPattern(base, elems, e.align, ClipLower, e.maxRow, w), lower},
					{"ExtendPattern(ClipUpper)", ExtendPattern(baseT, elems, e.align, ClipUpper, e.maxRow, w), upper},
					{"Pattern.TransposeParallel(lower)", lower.TransposeParallel(w), lowerT},
					{"Pattern.TransposeParallel(upper)", upper.TransposeParallel(w), upperT},
				}
				for _, c := range checks {
					if !c.got.Equal(c.want) {
						t.Errorf("%s: %s on %d workers differs from the serial oracle", name, c.what, w)
					}
				}
			}
			if e.maxRow != 512 {
				continue
			}
			g := factorOn(m.a.Rows, lower)
			for k := range g.Val {
				g.Val[k] = rng.Float64()
			}
			filtered, gT := serialFilterExtension(base, lower, g, 0.5), serialTransposeCSR(g)
			for _, w := range workers {
				if !filterExtension(base, lower, g, 0.5, w).Equal(filtered) {
					t.Errorf("%s: filterExtension on %d workers differs from the serial oracle", name, w)
				}
				if !sameCSR(g.TransposeParallel(w), gT) {
					t.Errorf("%s: CSR.TransposeParallel on %d workers is not bit-identical to the serial transpose", name, w)
				}
			}
		}
	}
}
