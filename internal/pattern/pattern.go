// Package pattern implements sparsity patterns — the index structure of a
// sparse matrix without its values — and the symbolic operations the FSAI
// setup needs: a row-chunked builder, transposition, union, and the pattern
// power Ã^N used to seed a-priori FSAI patterns (Chow's method).
package pattern

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Pattern is a sparsity pattern stored like CSR without values: row i owns
// the column indices Cols[RowPtr[i]:RowPtr[i+1]], sorted ascending, unique.
type Pattern struct {
	Rows, NCols int
	RowPtr      []int
	Cols        []int
}

// New returns an empty pattern with r rows and c columns.
func New(r, c int) *Pattern {
	return &Pattern{Rows: r, NCols: c, RowPtr: make([]int, r+1)}
}

// FromCSR extracts the sparsity pattern of a CSR matrix.
func FromCSR(m *sparse.CSR) *Pattern {
	return &Pattern{
		Rows:   m.Rows,
		NCols:  m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		Cols:   append([]int(nil), m.ColIdx...),
	}
}

// FromRows builds a pattern from per-row index slices; rows are sorted and
// deduplicated. Indices out of [0,c) panic.
func FromRows(r, c int, rows [][]int) *Pattern {
	p := New(r, c)
	for i := 0; i < r; i++ {
		row := append([]int(nil), rows[i]...)
		sort.Ints(row)
		prev := -1
		for _, j := range row {
			if j < 0 || j >= c {
				panic(fmt.Sprintf("pattern: index %d out of range [0,%d)", j, c))
			}
			if j == prev {
				continue
			}
			p.Cols = append(p.Cols, j)
			prev = j
		}
		p.RowPtr[i+1] = len(p.Cols)
	}
	return p
}

// NNZ returns the number of stored positions.
func (p *Pattern) NNZ() int { return len(p.Cols) }

// Row returns the column indices of row i, aliasing internal storage.
func (p *Pattern) Row(i int) []int { return p.Cols[p.RowPtr[i]:p.RowPtr[i+1]] }

// Contains reports whether position (i,j) is in the pattern.
func (p *Pattern) Contains(i, j int) bool {
	row := p.Row(i)
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// Clone returns a deep copy.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{
		Rows:   p.Rows,
		NCols:  p.NCols,
		RowPtr: append([]int(nil), p.RowPtr...),
		Cols:   append([]int(nil), p.Cols...),
	}
}

// Equal reports whether two patterns are identical.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.Rows != q.Rows || p.NCols != q.NCols || len(p.Cols) != len(q.Cols) {
		return false
	}
	for i := range p.RowPtr {
		if p.RowPtr[i] != q.RowPtr[i] {
			return false
		}
	}
	for k := range p.Cols {
		if p.Cols[k] != q.Cols[k] {
			return false
		}
	}
	return true
}

// String returns a short summary.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern{%dx%d, nnz=%d}", p.Rows, p.NCols, p.NNZ())
}

// Validate checks structural invariants (sorted unique in-range rows).
func (p *Pattern) Validate() error {
	if p.Rows < 0 || p.NCols < 0 {
		return fmt.Errorf("pattern: negative dimension")
	}
	if len(p.RowPtr) != p.Rows+1 || p.RowPtr[0] != 0 || p.RowPtr[p.Rows] != len(p.Cols) {
		return fmt.Errorf("pattern: inconsistent row pointers")
	}
	for i := 0; i < p.Rows; i++ {
		if lo, hi := p.RowPtr[i], p.RowPtr[i+1]; lo > hi || hi > len(p.Cols) {
			return fmt.Errorf("pattern: row %d has extent [%d,%d) outside [0,%d)", i, lo, hi, len(p.Cols))
		}
		prev := -1
		for _, j := range p.Row(i) {
			if j < 0 || j >= p.NCols {
				return fmt.Errorf("pattern: row %d index %d out of range", i, j)
			}
			if j <= prev {
				return fmt.Errorf("pattern: row %d not strictly ascending at %d", i, j)
			}
			prev = j
		}
	}
	return nil
}

// Transpose returns the transposed pattern: TransposeParallel on one
// worker.
func (p *Pattern) Transpose() *Pattern { return p.TransposeParallel(1) }

// TransposeParallel returns the transposed pattern: the chunked counting
// sort of sparse.CSR.TransposeParallel on p's structure, so every column
// of p lists its rows in ascending order and the result does not depend on
// workers (<=0: all CPUs).
func (p *Pattern) TransposeParallel(workers int) *Pattern {
	t := (&sparse.CSR{Rows: p.Rows, Cols: p.NCols, RowPtr: p.RowPtr, ColIdx: p.Cols}).TransposeParallel(workers)
	return &Pattern{Rows: t.Rows, NCols: t.Cols, RowPtr: t.RowPtr, Cols: t.ColIdx}
}

// Power returns the pattern of p^n for a square pattern p and n >= 1, the
// symbolic analogue of matrix powering used to build a-priori FSAI patterns
// (pattern of Ã^N). n == 1 returns a clone.
func (p *Pattern) Power(n int) *Pattern {
	if p.Rows != p.NCols {
		panic("pattern: Power of non-square pattern")
	}
	if n < 1 {
		panic("pattern: Power exponent must be >= 1")
	}
	out := p.Clone()
	for k := 1; k < n; k++ {
		out = out.MulPattern(p)
	}
	return out
}

// MulPattern returns the symbolic product pattern of p*q: position (i,j) is
// present iff some k has (i,k) in p and (k,j) in q.
func (p *Pattern) MulPattern(q *Pattern) *Pattern {
	if p.NCols != q.Rows {
		panic("pattern: MulPattern inner dimension mismatch")
	}
	out := New(p.Rows, q.NCols)
	marker := make([]int, q.NCols)
	for i := range marker {
		marker[i] = -1
	}
	var rowBuf []int
	for i := 0; i < p.Rows; i++ {
		rowBuf = rowBuf[:0]
		for _, k := range p.Row(i) {
			for _, j := range q.Row(k) {
				if marker[j] != i {
					marker[j] = i
					rowBuf = append(rowBuf, j)
				}
			}
		}
		sort.Ints(rowBuf)
		out.Cols = append(out.Cols, rowBuf...)
		out.RowPtr[i+1] = len(out.Cols)
	}
	return out
}

// SubsetOf reports whether every position of p is also in q.
func (p *Pattern) SubsetOf(q *Pattern) bool {
	if p.Rows != q.Rows || p.NCols != q.NCols {
		return false
	}
	for i := 0; i < p.Rows; i++ {
		a, b := p.Row(i), q.Row(i)
		kb := 0
		for _, j := range a {
			for kb < len(b) && b[kb] < j {
				kb++
			}
			if kb == len(b) || b[kb] != j {
				return false
			}
		}
	}
	return true
}

// ToCSR materializes the pattern as a CSR matrix with all stored values set
// to v (useful for visualization and for symbolic checks against sparse ops).
func (p *Pattern) ToCSR(v float64) *sparse.CSR {
	m := &sparse.CSR{
		Rows:   p.Rows,
		Cols:   p.NCols,
		RowPtr: append([]int(nil), p.RowPtr...),
		ColIdx: append([]int(nil), p.Cols...),
		Val:    make([]float64, len(p.Cols)),
	}
	for k := range m.Val {
		m.Val[k] = v
	}
	return m
}
