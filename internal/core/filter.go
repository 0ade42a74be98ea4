package fsai

import (
	"math"

	"repro/internal/pattern"
	"repro/internal/sparse"
)

// filterExtension implements the precalculation-based filtering of
// Section 5: given the extended pattern ext (⊇ base), and an (approximate
// or exact) G evaluated on ext, it returns the pattern keeping
//
//   - every base entry unconditionally (filtering "removes only entries of
//     the extension", Section 7.1), and
//   - every extension entry (i,j) with |g_ij| >= filter * |g_ii| — the
//     scale-independent order-of-magnitude comparison of non-diagonal
//     entries with respect to the diagonal entry.
//
// filter == 0 keeps the whole extension. The rows are built on workers row
// chunks (see pattern.Build); the result does not depend on workers.
func filterExtension(base, ext *pattern.Pattern, g *sparse.CSR, filter float64, workers int) *pattern.Pattern {
	if filter <= 0 {
		return ext.Clone()
	}
	return pattern.Build(ext.Rows, ext.NCols, workers, func(dst []int, i int) []int {
		cols, vals := g.Row(i)
		// Diagonal magnitude: the pattern is lower triangular with the
		// diagonal last in the row.
		diag := math.Abs(vals[len(vals)-1])
		b := base.Row(i)
		kb := 0
		for k, j := range cols {
			for kb < len(b) && b[kb] < j {
				kb++
			}
			inBase := kb < len(b) && b[kb] == j
			if inBase || j == i || math.Abs(vals[k]) >= filter*diag {
				dst = append(dst, j)
			}
		}
		return dst
	})
}

// postFilterRescale implements the classical filtering of Algorithm 1 step 4
// used for the Table 3 comparison: G has already been computed exactly on
// the extended pattern; extension entries with |g_ij| < filter * |g_ii| are
// dropped *after* the fact, and each surviving row is rescaled so that
// diag(G A Gᵀ) = 1 again (g_i ← g_i / sqrt(g_iᵀ A g_i)). Unlike the
// precalculation strategy, the surviving values are no longer the Frobenius
// minimizer on the filtered pattern.
//
// Base entries are never dropped, mirroring the extension-only filtering of
// the evaluated configurations.
func postFilterRescale(a *sparse.CSR, base *pattern.Pattern, g *sparse.CSR, filter float64) *sparse.CSR {
	out := &sparse.CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: make([]int, g.Rows+1)}
	for i := 0; i < g.Rows; i++ {
		cols, vals := g.Row(i)
		diag := math.Abs(vals[len(vals)-1])
		b := base.Row(i)
		kb := 0
		start := len(out.ColIdx)
		for k, j := range cols {
			for kb < len(b) && b[kb] < j {
				kb++
			}
			inBase := kb < len(b) && b[kb] == j
			if !inBase && j != i && math.Abs(vals[k]) < filter*diag {
				continue
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, vals[k])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
		// Rescale the row: q = g_iᵀ A g_i over the surviving support.
		rowCols := out.ColIdx[start:]
		rowVals := out.Val[start:]
		q := quadraticForm(a, rowCols, rowVals)
		if q > 0 {
			s := 1 / math.Sqrt(q)
			for k := range rowVals {
				rowVals[k] *= s
			}
		}
	}
	return out
}

// quadraticForm computes vᵀ A v for a sparse vector v given by sorted
// indices cols and values vals.
func quadraticForm(a *sparse.CSR, cols []int, vals []float64) float64 {
	q := 0.0
	for k, i := range cols {
		acols, avals := a.Row(i)
		// Dot the sparse row of A with the sparse vector.
		ka, kv := 0, 0
		s := 0.0
		for ka < len(acols) && kv < len(cols) {
			switch {
			case acols[ka] == cols[kv]:
				s += avals[ka] * vals[kv]
				ka++
				kv++
			case acols[ka] < cols[kv]:
				ka++
			default:
				kv++
			}
		}
		q += vals[k] * s
	}
	return q
}
