package fsai

import (
	"math"

	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

// This file implements a *dynamic* FSAI pattern strategy in the spirit of
// FSPAI (Huckle 2003) and the adaptive procedures surveyed in Section 8 of
// the paper: instead of fixing the pattern a priori (lower triangle of Ã^N),
// each row's pattern grows greedily from the diagonal, adding the candidate
// position with the largest Frobenius-residual contribution until a
// tolerance or size budget is met.
//
// The search is Compute's base-pattern phase when Options.AdaptiveMaxPerRow
// is set, so the paper's point — that cache-aware extension is
// *complementary to any numerical pattern strategy* — is testable here: the
// FSAIE variants extend, precalculate and filter the adaptively found
// pattern like any other base (see the adaptive ablation in
// internal/experiments).

// adaptiveTol stops a row's growth in Compute's adaptive search once the
// best candidate's residual falls below adaptiveTol times the row's current
// diagonal value.
const adaptiveTol = 0.02

// adaptivePattern grows every row's pattern with growRow on workers row
// chunks, each row once: a row whose local system is not positive definite
// fails the setup with its ReasonNotSPD SetupError.
func adaptivePattern(a *sparse.CSR, maxPerRow int, tol float64, workers int) (*pattern.Pattern, error) {
	rows := make([][]int, a.Rows)
	err := forRowChunks(a.Rows, workers, nil, func(lo, hi int, _ *SetupStats) error {
		var aloc, y, work []float64
		for i := lo; i < hi; i++ {
			p, err := growRow(a, i, maxPerRow, tol, &aloc, &y, &work)
			if err != nil {
				return err
			}
			rows[i] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pattern.FromRows(a.Rows, a.Cols, rows), nil
}

// growRow runs the greedy pattern search for row i: starting from {i}, it
// repeatedly solves the local system A(P,P) y = e_i, evaluates the residual
// (A y − e_i) at the admissible candidates (graph neighbours j < i of the
// current pattern) and admits the largest one, until the best residual is
// below tol·|y_i| or the row holds maxPerRow entries. It returns the sorted
// pattern (diagonal included). The buffers are the worker's solve scratch.
func growRow(a *sparse.CSR, i, maxPerRow int, tol float64, alocBuf, yBuf, workBuf *[]float64) ([]int, error) {
	p := []int{i}
	inP := map[int]bool{i: true}
	for len(p) < maxPerRow {
		m := len(p)
		if cap(*alocBuf) < m*m {
			*alocBuf = make([]float64, 4*m*m)
			*workBuf = make([]float64, 4*m*m)
			*yBuf = make([]float64, 4*m)
		}
		aloc := a.Extract(p, (*alocBuf)[:m*m])
		y := (*yBuf)[:m]
		// p is sorted with i last (all admitted candidates are < i).
		sparse.GatherRHS(y, m-1)
		if err := dense.SolveSPD(aloc, m, y, *workBuf); err != nil {
			return nil, setupErrf(ReasonNotSPD, i, "adaptive row %d: %w", i, ErrNotSPD)
		}
		diag := y[m-1]
		if diag <= 0 {
			return nil, setupErrf(ReasonNotSPD, i, "adaptive row %d diagonal %g: %w", i, diag, ErrNotSPD)
		}
		// Candidates: lower-index graph neighbours of current members.
		bestJ, bestR := -1, 0.0
		seen := map[int]bool{}
		for _, k := range p {
			cols, _ := a.Row(k)
			for _, j := range cols {
				if j >= i || inP[j] || seen[j] {
					continue
				}
				seen[j] = true
				// Residual of A[:,P] y − e_i at row j: dot(A(j,P), y).
				r := dotRowSubset(a, j, p, y)
				if ar := math.Abs(r); ar > bestR {
					bestR, bestJ = ar, j
				}
			}
		}
		if bestJ < 0 || bestR < tol*math.Abs(diag) {
			break
		}
		p = insertSorted(p, bestJ)
		inP[bestJ] = true
	}
	return p, nil
}

// dotRowSubset computes dot(A(j, idx), y) for sorted idx.
func dotRowSubset(a *sparse.CSR, j int, idx []int, y []float64) float64 {
	cols, vals := a.Row(j)
	s := 0.0
	ka, ki := 0, 0
	for ka < len(cols) && ki < len(idx) {
		switch {
		case cols[ka] == idx[ki]:
			s += vals[ka] * y[ki]
			ka++
			ki++
		case cols[ka] < idx[ki]:
			ka++
		default:
			ki++
		}
	}
	return s
}
