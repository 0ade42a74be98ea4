// Package sparse implements the sparse-matrix substrate of the FSAI
// reproduction: CSR storage (built through a COO builder), the sparse
// products Y = A X over k column-major vectors (k = 1 is the SpMV kernel
// the paper's analysis revolves around), transposition, triangular
// extraction, thresholding and symbolic utilities.
//
// Matrices are real, double precision. Row/column indices are 0-based.
// CSR matrices keep the column indices of every row sorted ascending; all
// constructors in this package establish that invariant and all kernels
// rely on it.
//
// Every product sums each row in one fixed order, so its bits do not
// depend on the column group, the row chunking or the worker count, nor on
// which body runs the single-column row loop: the Go body, or on amd64 the
// assembly body that reproduces its arithmetic (spmm.go).
package sparse

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// Row i owns the half-open index range [RowPtr[i], RowPtr[i+1]) of ColIdx
// and Val. Column indices within a row are sorted ascending and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// plan caches the nnz-balanced row partition used by the parallel SpMV
	// kernels (see PartitionPlan). It is advisory state: a zero value is
	// always valid, and structural mutators drop it.
	plan atomic.Pointer[Plan]
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i as sub-slices that
// alias the matrix storage. Callers must not grow them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the entry (i,j), or 0 if it is not stored. It runs in
// O(log nnz(row i)) using binary search over the sorted column indices.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Has reports whether entry (i,j) is stored.
func (m *CSR) Has(i, j int) bool {
	cols, _ := m.Row(i)
	k := sort.SearchInts(cols, j)
	return k < len(cols) && cols[k] == j
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// String returns a short human-readable summary (not the full contents).
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}

// Validate checks the structural invariants of the CSR matrix: monotone row
// pointers, in-range sorted unique column indices and consistent lengths.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return errors.New("sparse: RowPtr[0] != 0")
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: len(ColIdx)=%d != len(Val)=%d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[m.Rows] != len(m.ColIdx) {
		return fmt.Errorf("sparse: RowPtr[last]=%d != nnz=%d", m.RowPtr[m.Rows], len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi || hi > len(m.ColIdx) {
			return fmt.Errorf("sparse: row %d has extent [%d,%d) outside [0,%d)", i, lo, hi, len(m.ColIdx))
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := m.ColIdx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: row %d column %d out of range [0,%d)", i, j, m.Cols)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", i, j)
			}
			prev = j
		}
	}
	return nil
}

// Triplet is one (row, column, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSRFromTriplets builds an r x c CSR matrix from coordinate entries.
// Duplicate coordinates are summed. Entries out of range return an error.
func NewCSRFromTriplets(r, c int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of %dx%d", t.Row, t.Col, r, c)
		}
	}
	// Count entries per row, then bucket-place, then sort+dedup each row.
	counts := make([]int, r+1)
	for _, t := range ts {
		counts[t.Row+1]++
	}
	for i := 0; i < r; i++ {
		counts[i+1] += counts[i]
	}
	cols := make([]int, len(ts))
	vals := make([]float64, len(ts))
	next := append([]int(nil), counts...)
	for _, t := range ts {
		k := next[t.Row]
		cols[k] = t.Col
		vals[k] = t.Val
		next[t.Row]++
	}
	m := &CSR{Rows: r, Cols: c, RowPtr: counts, ColIdx: cols, Val: vals}
	m.sortDedupRows()
	return m, nil
}

// sortDedupRows sorts each row by column and sums duplicates, compacting the
// storage in place. Every row is sorted through one sorter, so building a
// matrix does not allocate per row.
func (m *CSR) sortDedupRows() {
	outPtr := make([]int, m.Rows+1)
	row := new(rowSorter)
	w := 0
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		row.cols, row.vals = m.ColIdx[lo:hi], m.Val[lo:hi]
		sort.Sort(row)
		outPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > outPtr[i] && m.ColIdx[w-1] == m.ColIdx[k] {
				m.Val[w-1] += m.Val[k]
				continue
			}
			m.ColIdx[w] = m.ColIdx[k]
			m.Val[w] = m.Val[k]
			w++
		}
	}
	outPtr[m.Rows] = w
	m.RowPtr = outPtr
	m.ColIdx = m.ColIdx[:w]
	m.Val = m.Val[:w]
	m.InvalidatePlan()
}

type rowSorter struct {
	cols []int
	vals []float64
}

func (r rowSorter) Len() int           { return len(r.cols) }
func (r rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// NewCSRFromRows builds a CSR matrix from per-row (cols, vals) pairs. The
// input rows need not be sorted; duplicates within a row are summed.
func NewCSRFromRows(r, c int, rowCols [][]int, rowVals [][]float64) (*CSR, error) {
	if len(rowCols) != r || len(rowVals) != r {
		return nil, fmt.Errorf("sparse: got %d/%d row slices, want %d", len(rowCols), len(rowVals), r)
	}
	nnz := 0
	for i := range rowCols {
		if len(rowCols[i]) != len(rowVals[i]) {
			return nil, fmt.Errorf("sparse: row %d cols/vals length mismatch", i)
		}
		nnz += len(rowCols[i])
	}
	m := &CSR{
		Rows:   r,
		Cols:   c,
		RowPtr: make([]int, r+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < r; i++ {
		for k, j := range rowCols[i] {
			if j < 0 || j >= c {
				return nil, fmt.Errorf("sparse: row %d column %d out of range [0,%d)", i, j, c)
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, rowVals[i][k])
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	m.sortDedupRows()
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// Diag returns the diagonal of the matrix as a dense vector of length
// min(Rows, Cols); missing diagonal entries are zero.
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}
