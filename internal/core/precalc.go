package fsai

import (
	"math"

	"repro/internal/pattern"
	"repro/internal/sparse"
)

// precalcMaxIter bounds each row's loose CG in the precalculation.
const precalcMaxIter = 25

// precalcTol is the loose CG tolerance of the precalculation at a given
// filter: filter/2 clamped to [5e-3, 0.1]. The estimate only needs to be
// accurate near the filtering boundary, and CG from a zero guess
// systematically underestimates small entries, so the tolerance must sit
// safely below the boundary ratio or borderline entries get dropped that
// exact magnitudes would keep.
func precalcTol(filter float64) float64 { return min(max(filter/2, 5e-3), 0.1) }

// precalcRows evaluates an *approximate* G of A on the given pattern using
// at most precalcMaxIter CG sweeps to tolerance tol per local system
// (Section 5). Only the order of magnitude of the entries matters — the
// result is used exclusively to decide which extension entries to keep.
// Each row's system is gathered in sparse form from ahat =
// symmetricLower(A), which the caller builds once per setup, never as a
// dense m×m block. A panicking row task comes back as a ReasonWorkerPanic
// SetupError.
func precalcRows(ahat *sparse.CSR, p *pattern.Pattern, tol float64, workers int, stats *SetupStats) (*sparse.CSR, error) {
	g := factorOn(ahat.Rows, p)
	err := forRowChunks(ahat.Rows, workers, stats, func(lo, hi int, st *SetupStats) error {
		ls := newLocalSystem(ahat.Rows)
		var rhs []float64
		for i := lo; i < hi; i++ {
			idx := p.Row(i)
			m := len(idx)
			ls.gather(ahat, idx)
			rhs = grow(rhs, m)
			sparse.GatherRHS(rhs, m-1)
			off := g.RowPtr[i]
			iters := ls.cg(g.Val[off:off+m], rhs, tol, precalcMaxIter)
			st.PrecalcFlops += float64(iters) * 2 * float64(m) * float64(m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// symmetricLower returns Â, the symmetric matrix read from lower(A) alone:
// row i is row i of lower(A) followed by row i of strictLower(A)ᵀ, so its
// columns ascend. These are the values the local solves read from the lower
// triangle of a dense block A(S,S); an input accepted as symmetric to a
// tolerance may hold other bits in its upper triangle.
func symmetricLower(a *sparse.CSR) *sparse.CSR {
	n := a.Rows
	h := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j <= i {
				h.RowPtr[i+1]++
			}
			if j < i {
				h.RowPtr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		h.RowPtr[i+1] += h.RowPtr[i]
	}
	h.ColIdx = make([]int, h.RowPtr[n])
	h.Val = make([]float64, h.RowPtr[n])
	next := append([]int(nil), h.RowPtr[:n]...)
	put := func(i, j int, v float64) {
		h.ColIdx[next[i]], h.Val[next[i]] = j, v
		next[i]++
	}
	// Row i receives its own lower entries at step i and the mirrored
	// entries of the later rows after it, in row order.
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j < i {
				put(i, j, a.Val[k])
				put(j, i, a.Val[k])
			} else if j == i {
				put(i, i, a.Val[k])
			}
		}
	}
	return h
}

// localSystem is one worker's precalculation scratch: a scatter map from
// global columns to positions in the current S_i (−1 elsewhere), the local
// system Â(S_i,S_i) in CSR with ascending local columns, and the CG
// vectors. It lives for one precalcRows call, so rows allocate nothing once
// it has grown, and a contained panic cannot leave a dirty map behind.
type localSystem struct {
	pos      scatter
	ptr, col []int32
	val      []float64
	r, p, ap []float64
}

func newLocalSystem(n int) *localSystem {
	return &localSystem{pos: newScatter(n)}
}

// gather loads Â(idx, idx) for the ascending index set idx: it maps idx in
// the scatter map, keeps the hits of Â's rows idx, then clears the map.
// Every probe is written at the current end and the length advances by the
// probe's hit bit, so the loop has no data-dependent branch; a miss is
// overwritten by the next probe or left past the end.
func (s *localSystem) gather(ahat *sparse.CSR, idx []int) {
	probes := 0
	for l, g := range idx {
		s.pos[g] = int32(l)
		probes += ahat.RowPtr[g+1] - ahat.RowPtr[g]
	}
	if cap(s.col) < probes {
		s.col, s.val = make([]int32, probes, 2*probes), make([]float64, probes, 2*probes)
	}
	col, val := s.col[:probes], s.val[:probes]
	s.ptr = append(s.ptr[:0], 0)
	n := 0
	for _, g := range idx {
		cols := ahat.ColIdx[ahat.RowPtr[g]:ahat.RowPtr[g+1]]
		vals := ahat.Val[ahat.RowPtr[g]:ahat.RowPtr[g+1]]
		for k, c := range cols {
			l := s.pos[c]
			col[n], val[n] = l, vals[k]
			n += int(^uint32(l) >> 31)
		}
		s.ptr = append(s.ptr, int32(n))
	}
	s.col, s.val = col[:n], val[:n]
	for _, g := range idx {
		s.pos[g] = -1
	}
}

// cg runs conjugate gradients on the gathered system from x = 0 until
// ‖r‖/‖b‖ <= tol or maxIter iterations, and returns the iterations run.
// Its x and count must stay bit-identical to a dense CG on the m×m block
// (TestLocalCGBitIdenticalToDenseCG), so each product row sums its stored
// entries in ascending column order, as a dense symmetric product sums a
// row, and pᵀAp accumulates over ascending rows. The dense sum also adds ±0
// for every structural zero, to a sum that starts at +0 and so is never −0,
// which changes no bit.
func (s *localSystem) cg(x, b []float64, tol float64, maxIter int) int {
	m := len(x)
	s.r, s.p, s.ap = grow(s.r, m), grow(s.p, m), grow(s.ap, m)
	r, p, ap := s.r, s.p, s.ap
	for i := range x {
		x[i] = 0
	}
	copy(r, b)
	copy(p, b)
	bnorm := math.Sqrt(dot(b, b))
	if bnorm == 0 {
		return 0
	}
	rr := dot(r, r)
	iters := 0
	for ; iters < maxIter; iters++ {
		if math.Sqrt(rr)/bnorm <= tol {
			break
		}
		pap := 0.0
		for i := 0; i < m; i++ {
			cols := s.col[s.ptr[i]:s.ptr[i+1]]
			vals := s.val[s.ptr[i]:s.ptr[i+1]]
			sum := 0.0
			for k, c := range cols {
				sum += vals[k] * p[c]
			}
			ap[i] = sum
			pap += p[i] * sum
		}
		if pap <= 0 {
			break // loss of positive definiteness in finite precision
		}
		alpha := rr / pap
		// ‖r‖² accumulates in the update sweep, in dot's ascending
		// single-accumulator order, so it is bit-identical to dot(r, r).
		rrNew := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rrNew += ri * ri
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return iters
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// grow reslices buf to n values, reallocating only when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
