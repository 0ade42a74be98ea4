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
// chunks, each row once, and adds the search's dense solves to stats' direct
// flops (nil: not counted): a row whose local system is not positive
// definite fails the setup with its ReasonNotSPD SetupError.
func adaptivePattern(a *sparse.CSR, maxPerRow int, tol float64, workers int, stats *SetupStats) (*pattern.Pattern, error) {
	rows := make([][]int, a.Rows)
	err := forRowChunks(a.Rows, workers, stats, func(lo, hi int, st *SetupStats) error {
		s := newRowSearch(a.Rows)
		for i := lo; i < hi; i++ {
			p, err := s.growRow(a, i, maxPerRow, tol, st)
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

// rowSearch is one worker's search scratch: the scatter map holding the
// current pattern P, generation stamps marking the candidates the current
// growth step has scored, and the dense solve buffers. It lives for one
// row chunk, so a failed row cannot leave a dirty map behind.
type rowSearch struct {
	pos           scatter
	seen          []uint32
	stamp         uint32
	aloc, y, work []float64
}

func newRowSearch(n int) *rowSearch {
	return &rowSearch{pos: newScatter(n), seen: make([]uint32, n)}
}

// growRow runs the greedy pattern search for row i: starting from {i}, it
// repeatedly solves the local system A(P,P) y = e_i, evaluates the residual
// (A y − e_i) at the admissible candidates (graph neighbours j < i of the
// current pattern) and admits the largest one, until the best residual is
// below tol·|y_i| or the row holds maxPerRow entries. It returns the sorted
// pattern (diagonal included) and counts each solve in st.DirectFlops.
func (s *rowSearch) growRow(a *sparse.CSR, i, maxPerRow int, tol float64, st *SetupStats) ([]int, error) {
	p := []int{i}
	for len(p) < maxPerRow {
		m := len(p)
		s.aloc, s.y, s.work = grow(s.aloc, m*m), grow(s.y, m), grow(s.work, m*m)
		s.pos.load(p)
		aloc := s.pos.block(a, p, s.aloc)
		y := s.y
		// p is sorted with i last (all admitted candidates are < i).
		sparse.GatherRHS(y, m-1)
		if err := dense.SolveSPD(aloc, m, y, s.work); err != nil {
			return nil, setupErrf(ReasonNotSPD, i, "adaptive row %d: %w", i, ErrNotSPD)
		}
		fm := float64(m)
		st.DirectFlops += fm*fm*fm/3 + 2*fm*fm
		diag := y[m-1]
		if diag <= 0 {
			return nil, setupErrf(ReasonNotSPD, i, "adaptive row %d diagonal %g: %w", i, diag, ErrNotSPD)
		}
		// Candidates: lower-index graph neighbours of current members.
		bestJ, bestR := -1, 0.0
		if s.stamp++; s.stamp == 0 {
			clear(s.seen)
			s.stamp = 1
		}
		for _, k := range p {
			cols, _ := a.Row(k)
			for _, j := range cols {
				if j >= i || s.pos[j] >= 0 || s.seen[j] == s.stamp {
					continue
				}
				s.seen[j] = s.stamp
				// Residual of A[:,P] y − e_i at row j: dot(A(j,P), y), summed
				// over row j's columns in P in ascending order.
				r := 0.0
				jcols, jvals := a.Row(j)
				for kk, c := range jcols {
					if l := s.pos[c]; l >= 0 {
						r += jvals[kk] * y[l]
					}
				}
				if ar := math.Abs(r); ar > bestR {
					bestR, bestJ = ar, j
				}
			}
		}
		s.pos.unload(p)
		if bestJ < 0 || bestR < tol*math.Abs(diag) {
			break
		}
		p = insertSorted(p, bestJ)
	}
	return p, nil
}
