package sparse

import (
	"math"

	"repro/internal/parallel"
)

// Transpose returns Aᵀ as a new CSR matrix (equivalently, A reinterpreted
// in CSC): TransposeParallel on one worker.
func (m *CSR) Transpose() *CSR { return m.TransposeParallel(1) }

// TransposeParallel returns Aᵀ, computed as one counting sort over the row
// chunks parallel.Chunks(m.Rows, workers) (<=0: all CPUs): each chunk
// counts its entries per column, a prefix over (column, chunk) gives every
// chunk its slot range in each column, and the chunks scatter their rows
// there. Chunks hold ascending rows, so the column indices of the result
// are sorted, and it does not depend on workers. A matrix with nil Val
// transposes its structure alone, and so does the result;
// pattern.Pattern's transpose is that case.
func (m *CSR) TransposeParallel(workers int) *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
	}
	if m.Val != nil {
		t.Val = make([]float64, m.NNZ())
	}
	bounds := parallel.Chunks(m.Rows, workers)
	nc := len(bounds) / 2
	// next[c*Cols+j]: chunk c's count, then its next slot, in column j.
	next := make([]int, nc*m.Cols)
	parallel.For(nc, nc, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cnt := next[c*m.Cols : (c+1)*m.Cols]
			for _, j := range m.ColIdx[m.RowPtr[bounds[2*c]]:m.RowPtr[bounds[2*c+1]]] {
				cnt[j]++
			}
		}
	})
	off := 0
	for j := 0; j < m.Cols; j++ {
		for c := 0; c < nc; c++ {
			n := next[c*m.Cols+j]
			next[c*m.Cols+j] = off
			off += n
		}
		t.RowPtr[j+1] = off
	}
	parallel.For(nc, nc, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			slot := next[c*m.Cols : (c+1)*m.Cols]
			for i := bounds[2*c]; i < bounds[2*c+1]; i++ {
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					j := m.ColIdx[k]
					p := slot[j]
					t.ColIdx[p] = i
					if t.Val != nil {
						t.Val[p] = m.Val[k]
					}
					slot[j]++
				}
			}
		}
	})
	return t
}

// Lower returns the lower triangle of A including the diagonal.
func (m *CSR) Lower() *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] <= i {
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, m.Val[k])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Threshold returns a copy of A with off-diagonal entries dropped when
// |a_ij| < tau * sqrt(|a_ii| * |a_jj|). Diagonal entries are always kept.
// This is the "Threshold A to produce Ã" step of Algorithms 1/2/4; the
// scale-independent criterion matches the paper's relative dropping.
func (m *CSR) Threshold(tau float64) *CSR {
	d := m.Diag()
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			v := m.Val[k]
			if i != j {
				scale := math.Sqrt(math.Abs(d[i]) * math.Abs(d[j]))
				if scale > 0 && math.Abs(v) < tau*scale {
					continue
				}
				if scale == 0 && math.Abs(v) < tau {
					continue
				}
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, v)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// IsSymmetric reports whether A is structurally and numerically symmetric
// within absolute tolerance tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if len(t.ColIdx) != len(m.ColIdx) {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1]-m.RowPtr[i] != t.RowPtr[i+1]-t.RowPtr[i] {
			return false
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] != t.ColIdx[k] {
				return false
			}
			if math.Abs(m.Val[k]-t.Val[k]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxNorm returns max |a_ij| over stored entries (0 for an empty matrix).
func (m *CSR) MaxNorm() float64 {
	max := 0.0
	for _, v := range m.Val {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobNorm returns the Frobenius norm of the stored entries.
func (m *CSR) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Val {
		s += v * v
	}
	return math.Sqrt(s)
}

// AddDiag returns A + s*I for a square matrix A, keeping sparsity (diagonal
// entries are created when missing).
func (m *CSR) AddDiag(s float64) *CSR {
	if m.Rows != m.Cols {
		panic("sparse: AddDiag on non-square matrix")
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		placed := false
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if !placed && j > i {
				out.ColIdx = append(out.ColIdx, i)
				out.Val = append(out.Val, s)
				placed = true
			}
			v := m.Val[k]
			if j == i {
				v += s
				placed = true
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, v)
		}
		if !placed {
			out.ColIdx = append(out.ColIdx, i)
			out.Val = append(out.Val, s)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Extract returns the dense symmetric restriction A(idx, idx) in column-major
// order (n = len(idx)), as used by the local FSAI systems A(S_i,S_i). idx
// must be sorted ascending. The result buffer out must have length n*n or be
// nil (then it is allocated).
func (m *CSR) Extract(idx []int, out []float64) []float64 {
	n := len(idx)
	if out == nil {
		out = make([]float64, n*n)
	} else {
		if len(out) < n*n {
			panic("sparse: Extract buffer too small")
		}
		out = out[:n*n]
		for k := range out {
			out[k] = 0
		}
	}
	// For each local row r (global row idx[r]) walk the sparse row and the
	// sorted idx list simultaneously.
	for r := 0; r < n; r++ {
		gi := idx[r]
		lo, hi := m.RowPtr[gi], m.RowPtr[gi+1]
		k, c := lo, 0
		for k < hi && c < n {
			j := m.ColIdx[k]
			switch {
			case j == idx[c]:
				out[c*n+r] = m.Val[k] // column-major: element (r,c)
				k++
				c++
			case j < idx[c]:
				k++
			default:
				c++
			}
		}
	}
	return out
}

// GatherRHS fills e with zeros and sets e[pos] = 1; a helper for building
// the local right-hand sides of the Frobenius minimization.
func GatherRHS(e []float64, pos int) {
	for i := range e {
		e[i] = 0
	}
	e[pos] = 1
}
