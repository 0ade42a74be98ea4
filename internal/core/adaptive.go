package fsai

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/parallel"
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
// The paper's point — that cache-aware extension is *complementary to any
// numerical pattern strategy* — is testable here: AdaptiveOptions.CacheExtend
// applies Algorithm 3 + precalculation filtering on top of the adaptively
// found pattern (see the adaptive ablation in internal/experiments).

// AdaptiveOptions configures the dynamic pattern search.
type AdaptiveOptions struct {
	// MaxPerRow caps each row's pattern size including the diagonal
	// (default 12).
	MaxPerRow int
	// Tol stops a row's growth when the best candidate's residual falls
	// below Tol times the current diagonal value (default 0.05).
	Tol float64
	// CacheExtend, when non-zero, cache-extends the adaptive pattern with
	// lines of that many bytes before the final solve, filtering the
	// extension with Filter.
	CacheExtend int
	// AlignElems is the x[0] line offset used by the extension.
	AlignElems int
	// Filter is the extension filtering threshold (as in Options.Filter).
	Filter float64
	// Workers bounds parallelism across rows.
	Workers int
}

func (o *AdaptiveOptions) normalize() {
	if o.MaxPerRow <= 0 {
		o.MaxPerRow = 12
	}
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
}

// ComputeAdaptive builds an FSAI preconditioner with a dynamically grown
// pattern. For each row i it starts from {i} and repeatedly solves the
// local system A(P,P) y = e_i, evaluates the residual (A y − e_i) at the
// admissible candidates (graph neighbours j < i of the current pattern) and
// admits the largest one, until Tol or MaxPerRow is reached. The final G is
// the Frobenius-optimal factor on the resulting pattern (optionally
// cache-extended first).
func ComputeAdaptive(a *sparse.CSR, opts AdaptiveOptions) (*Preconditioner, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("fsai: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	opts.normalize()
	n := a.Rows
	rows := make([][]int, n)
	nw := opts.Workers
	if nw <= 0 {
		nw = parallel.MaxWorkers()
	}
	errs := make([]error, n)
	parallel.For(n, nw, func(lo, hi int) {
		var aloc, y, work []float64
		for i := lo; i < hi; i++ {
			p, err := growRow(a, i, opts, &aloc, &y, &work)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = p
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	base := pattern.FromRows(n, n, rows)

	pre := &Preconditioner{Workers: opts.Workers, BasePattern: base}
	final := base
	if opts.CacheExtend > 0 {
		elems := opts.CacheExtend / 8
		if elems < 1 {
			return nil, fmt.Errorf("fsai: CacheExtend %dB smaller than one element", opts.CacheExtend)
		}
		sx := ExtendPattern(base, elems, opts.AlignElems, ClipLower, 512, opts.Workers)
		if opts.Filter > 0 {
			gpre, err := precalcRows(symmetricLower(a), sx, opts.Filter/2, 25, opts.Workers, &pre.Stats)
			if err != nil {
				return nil, err
			}
			final = filterExtension(base, sx, gpre, opts.Filter, opts.Workers)
		} else {
			final = sx
		}
	}
	g, err := computeRows(a, final, opts.Workers, &pre.Stats)
	if err != nil {
		return nil, err
	}
	pre.G = g
	pre.GT = g.TransposeParallel(opts.Workers)
	pre.FinalPattern = final
	pre.initApply()
	return pre, nil
}

// growRow runs the greedy pattern search for row i and returns the sorted
// pattern (diagonal included). The buffers are the worker's solve scratch.
func growRow(a *sparse.CSR, i int, opts AdaptiveOptions, alocBuf, yBuf, workBuf *[]float64) ([]int, error) {
	p := []int{i}
	inP := map[int]bool{i: true}
	for len(p) < opts.MaxPerRow {
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
			return nil, fmt.Errorf("fsai: adaptive row %d: %w", i, ErrNotSPD)
		}
		diag := y[m-1]
		if diag <= 0 {
			return nil, fmt.Errorf("fsai: adaptive row %d diagonal %g: %w", i, diag, ErrNotSPD)
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
		if bestJ < 0 || bestR < opts.Tol*math.Abs(diag) {
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
