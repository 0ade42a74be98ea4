package sparse

import "fmt"

// SpMM (multi-vector SpMV) kernels: Y = A X for a block X of k dense
// vectors stored column-major (column j of X is x[j*Cols:(j+1)*Cols], of Y
// is y[j*Rows:(j+1)*Rows]). One pass over the matrix serves all k columns,
// so the dominant CSR stream (values + column indices, StreamBytes) is read
// once instead of k times — the same bandwidth→compute shift
// the paper's cache-aware patterns buy inside one SpMV, applied across
// right-hand sides. Per-RHS matrix traffic drops k-fold; only the k column
// gathers remain per-vector.
//
// Bit-identity: each column of MulMat uses exactly the accumulation order
// of MulVecRange (4-way unrolled over the row's entries, combined as
// (s0+s1)+(s2+s3)), so column j of a k-column product is bit-identical to
// the single-vector product with that column for every k. The batched solve
// paths rely on this to return the same bits as unbatched solves.

// MulMatRange computes Y[lo:hi, :] = (A X)[lo:hi, :] for the row range
// [lo,hi) over k column-major vectors. Like MulVecRange it performs no
// dimension checks and no op-counting; pooled callers schedule it over
// partition-plan chunks and charge the sweep via AccountSpMM.
//
// Columns are processed in groups of four so the row's value/index stream
// is loaded once per group; the remainder runs a two-column group and then
// delegates single columns to MulVecRange (which makes k = 1 trivially the
// scalar kernel).
func (m *CSR) MulMatRange(y, x []float64, k, lo, hi int) {
	rp, ci, v := m.RowPtr, m.ColIdx, m.Val
	rows, cols := m.Rows, m.Cols
	j := 0
	for ; j+4 <= k; j += 4 {
		x0 := x[j*cols : (j+1)*cols]
		x1 := x[(j+1)*cols : (j+2)*cols]
		x2 := x[(j+2)*cols : (j+3)*cols]
		x3 := x[(j+3)*cols : (j+4)*cols]
		y0 := y[j*rows : (j+1)*rows]
		y1 := y[(j+1)*rows : (j+2)*rows]
		y2 := y[(j+2)*rows : (j+3)*rows]
		y3 := y[(j+3)*rows : (j+4)*rows]
		for i := lo; i < hi; i++ {
			p, end := rp[i], rp[i+1]
			var a0, a1, a2, a3 float64
			var b0, b1, b2, b3 float64
			var c0, c1, c2, c3 float64
			var d0, d1, d2, d3 float64
			for ; p+4 <= end; p += 4 {
				v0, v1, v2, v3 := v[p], v[p+1], v[p+2], v[p+3]
				j0, j1, j2, j3 := ci[p], ci[p+1], ci[p+2], ci[p+3]
				a0 += v0 * x0[j0]
				a1 += v1 * x0[j1]
				a2 += v2 * x0[j2]
				a3 += v3 * x0[j3]
				b0 += v0 * x1[j0]
				b1 += v1 * x1[j1]
				b2 += v2 * x1[j2]
				b3 += v3 * x1[j3]
				c0 += v0 * x2[j0]
				c1 += v1 * x2[j1]
				c2 += v2 * x2[j2]
				c3 += v3 * x2[j3]
				d0 += v0 * x3[j0]
				d1 += v1 * x3[j1]
				d2 += v2 * x3[j2]
				d3 += v3 * x3[j3]
			}
			for ; p < end; p++ {
				vp, jp := v[p], ci[p]
				a0 += vp * x0[jp]
				b0 += vp * x1[jp]
				c0 += vp * x2[jp]
				d0 += vp * x3[jp]
			}
			y0[i] = (a0 + a1) + (a2 + a3)
			y1[i] = (b0 + b1) + (b2 + b3)
			y2[i] = (c0 + c1) + (c2 + c3)
			y3[i] = (d0 + d1) + (d2 + d3)
		}
	}
	if j+2 <= k {
		x0 := x[j*cols : (j+1)*cols]
		x1 := x[(j+1)*cols : (j+2)*cols]
		y0 := y[j*rows : (j+1)*rows]
		y1 := y[(j+1)*rows : (j+2)*rows]
		for i := lo; i < hi; i++ {
			p, end := rp[i], rp[i+1]
			var a0, a1, a2, a3 float64
			var b0, b1, b2, b3 float64
			for ; p+4 <= end; p += 4 {
				v0, v1, v2, v3 := v[p], v[p+1], v[p+2], v[p+3]
				j0, j1, j2, j3 := ci[p], ci[p+1], ci[p+2], ci[p+3]
				a0 += v0 * x0[j0]
				a1 += v1 * x0[j1]
				a2 += v2 * x0[j2]
				a3 += v3 * x0[j3]
				b0 += v0 * x1[j0]
				b1 += v1 * x1[j1]
				b2 += v2 * x1[j2]
				b3 += v3 * x1[j3]
			}
			for ; p < end; p++ {
				vp, jp := v[p], ci[p]
				a0 += vp * x0[jp]
				b0 += vp * x1[jp]
			}
			y0[i] = (a0 + a1) + (a2 + a3)
			y1[i] = (b0 + b1) + (b2 + b3)
		}
		j += 2
	}
	if j < k {
		m.MulVecRange(y[j*rows:(j+1)*rows], x[j*cols:(j+1)*cols], lo, hi)
	}
}

// AccountSpMM charges one k-column SpMM sweep of m to the package op
// counters (no-op when counting is disabled). Callers driving MulMatRange
// over partition-plan chunks use it exactly like AccountSpMV.
func (m *CSR) AccountSpMM(k int) { m.countSpMM(k) }

// MulMat computes Y = A X for k column-major vectors. y must have length
// k*A.Rows and x length k*A.Cols. Column j of the result is bit-identical
// to MulVec applied to column j of X.
func (m *CSR) MulMat(y, x []float64, k int) {
	if k < 1 || len(y) != k*m.Rows || len(x) != k*m.Cols {
		panic(fmt.Sprintf("sparse: MulMat dimensions y=%d x=%d k=%d for %s", len(y), len(x), k, m))
	}
	m.countSpMM(k)
	m.MulMatRange(y, x, k, 0, m.Rows)
}

// MulMatT computes Y = Aᵀ X for k column-major vectors without
// materializing the transpose, scattering row contributions into all k
// output columns in one pass over the matrix. y must have length k*A.Cols
// and x length k*A.Rows. Like MulVecT, rows whose x entries are all zero
// are skipped.
func (m *CSR) MulMatT(y, x []float64, k int) {
	if k < 1 || len(y) != k*m.Cols || len(x) != k*m.Rows {
		panic(fmt.Sprintf("sparse: MulMatT dimensions y=%d x=%d k=%d for %s", len(y), len(x), k, m))
	}
	m.countSpMM(k)
	for i := range y {
		y[i] = 0
	}
	rp, ci, v := m.RowPtr, m.ColIdx, m.Val
	rows, cols := m.Rows, m.Cols
	j := 0
	for ; j+4 <= k; j += 4 {
		x0 := x[j*rows : (j+1)*rows]
		x1 := x[(j+1)*rows : (j+2)*rows]
		x2 := x[(j+2)*rows : (j+3)*rows]
		x3 := x[(j+3)*rows : (j+4)*rows]
		y0 := y[j*cols : (j+1)*cols]
		y1 := y[(j+1)*cols : (j+2)*cols]
		y2 := y[(j+2)*cols : (j+3)*cols]
		y3 := y[(j+3)*cols : (j+4)*cols]
		for i := 0; i < rows; i++ {
			xi0, xi1, xi2, xi3 := x0[i], x1[i], x2[i], x3[i]
			if xi0 == 0 && xi1 == 0 && xi2 == 0 && xi3 == 0 {
				continue
			}
			for p := rp[i]; p < rp[i+1]; p++ {
				vp, c := v[p], ci[p]
				y0[c] += vp * xi0
				y1[c] += vp * xi1
				y2[c] += vp * xi2
				y3[c] += vp * xi3
			}
		}
	}
	for ; j < k; j++ {
		m.scatterRange(y[j*cols:(j+1)*cols], x[j*rows:(j+1)*rows], 0, rows)
	}
}
