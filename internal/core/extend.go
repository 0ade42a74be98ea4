// Package fsai implements the paper's primary contribution: the Factorized
// Sparse Approximate Inverse preconditioner (G^T G ≈ A^{-1}) with
// cache-aware sparse-pattern extensions.
//
// Three preconditioner variants are provided, matching Section 7.1:
//
//   - FSAI: the state-of-the-art baseline (Algorithm 1) — pattern is the
//     lower triangle of A (or of Ã^N), values from the row-wise Frobenius
//     minimization.
//   - FSAIE(sp): Algorithm 4 without steps 5–6 — the pattern of G is
//     extended with cache-friendly entries (spatial locality of the Gp
//     product), precalculated, and filtered before the final solve.
//   - FSAIE(full): full Algorithm 4 — the extension/precalculation/filter
//     sequence is applied to the pattern and then again to its transpose,
//     optimizing both Gp and G^T p.
//
// Compute builds every variant, on the a-priori base lower(Ã^N) or on an
// adaptively grown one (Options.AdaptiveMaxPerRow, Section 8).
package fsai

import "repro/internal/pattern"

// Clip restricts which extension candidates are admissible for a pattern.
type Clip int

const (
	// ClipNone admits any column in the cache-line block.
	ClipNone Clip = iota
	// ClipLower admits only columns j <= i (lower-triangular patterns, the
	// pattern of G). Entries above the diagonal would leave the space of
	// lower-triangular factors, so Algorithm 3 discards them.
	ClipLower
	// ClipUpper admits only columns j >= i (the pattern of G^T, used by the
	// second extension pass of FSAIE(full)).
	ClipUpper
)

// span returns the admissible part [lo, hi] of the columns [j0, j1] for
// row i; lo > hi when none is admissible.
func (c Clip) span(i, j0, j1 int) (lo, hi int) {
	switch c {
	case ClipLower:
		return j0, min(j1, i)
	case ClipUpper:
		return max(j0, i), j1
	default:
		return j0, j1
	}
}

// ExtendPattern implements Algorithm 3 (Cache-Friendly Fill-In). It returns
// the input pattern s extended with every column whose x-vector element
// shares a cache line with an element already accessed by s, subject to the
// triangular clip.
//
// elemsPerLine is the number of vector elements per cache line
// (lineBytes/8 for float64), alignElems the element offset of x[0] within
// its line (Section 4.1's virtual-address modulo). Entries of x[j] fall in
// line block (j+alignElems)/elemsPerLine; for each block touched by a row
// the whole admissible column range of the block is added.
//
// The "already considered column block" skip of Algorithm 3 (lines 6-8)
// falls out of the blocks being visited in ascending column order.
//
// maxRow, when positive, bounds the extended size of each row: once a row
// reaches maxRow entries no further line blocks are expanded for it (the
// original entries are always kept). This is an implementation safety bound
// — on patterns with highly scattered rows (random graphs) and large cache
// lines, the unfiltered extension can approach dense rows, making the local
// Frobenius solves cubically expensive; the cap keeps setup tractable while
// leaving realistic patterns untouched. maxRow <= 0 disables the bound.
//
// The rows are built on workers row chunks (see pattern.Build); the result
// does not depend on workers.
func ExtendPattern(s *pattern.Pattern, elemsPerLine, alignElems int, clip Clip, maxRow, workers int) *pattern.Pattern {
	if elemsPerLine < 1 {
		panic("fsai: elemsPerLine must be >= 1")
	}
	alignElems %= elemsPerLine
	if alignElems < 0 {
		alignElems += elemsPerLine
	}
	return pattern.Build(s.Rows, s.NCols, workers, func(dst []int, i int) []int {
		row := s.Row(i)
		// The row is merged in as the blocks are expanded: row[k:] holds
		// the original entries not yet written. Every original entry lies
		// in a block expanded before or at its own, or after the cap, so
		// the output comes out ascending and without duplicates.
		k, added, lastBlock := 0, 0, -1
		for _, j := range row {
			block := (j + alignElems) / elemsPerLine
			if block == lastBlock {
				continue // line already considered for this row
			}
			if maxRow > 0 && len(row)+added >= maxRow {
				break
			}
			lastBlock = block
			j0 := block*elemsPerLine - alignElems
			j1 := min(j0+elemsPerLine-1, s.NCols-1)
			j0 = max(j0, 0)
			lo, hi := clip.span(i, j0, j1)
			if lo > hi {
				lo, hi = j1+1, j1 // the first loop writes the block's originals
			}
			for ; k < len(row) && row[k] < lo; k++ {
				dst = append(dst, row[k])
			}
			for j2 := lo; j2 <= hi; j2++ {
				dst = append(dst, j2)
			}
			for k < len(row) && row[k] <= hi {
				k++ // written with the span
			}
			for ; k < len(row) && row[k] <= j1; k++ {
				dst = append(dst, row[k])
			}
			// The cap counts the admissible columns of the block other
			// than j, original or not.
			if lo <= hi {
				added += hi - lo + 1
				if lo <= j && j <= hi {
					added--
				}
			}
		}
		return append(dst, row[k:]...)
	})
}
