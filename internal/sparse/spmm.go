package sparse

import (
	"fmt"

	"repro/internal/parallel"
)

// Sparse products Y = A X for a block X of k dense vectors stored
// column-major (column j of X is x[j*Cols:(j+1)*Cols], of Y is
// y[j*Rows:(j+1)*Rows]). MulMatRange is the one product body: the
// single-vector SpMV is its k = 1 case. One pass over the matrix serves all
// k columns, so the dominant CSR stream (values + column indices,
// StreamBytes) is read once instead of k times — the same
// bandwidth→compute shift the paper's cache-aware patterns buy inside one
// SpMV, applied across right-hand sides. Per-RHS matrix traffic drops
// k-fold; only the k column gathers remain per-vector.
//
// Bit-identity: every column accumulates its row in the same order (4-way
// unrolled over the row's entries, combined as (s0+s1)+(s2+s3)) whatever
// column group it falls in, so column j of a k-column product is
// bit-identical to the k = 1 product with that column for every k, and
// row-chunked (parallel) evaluation is bit-identical to serial evaluation
// for any worker count. The single-column loop has two bodies with that
// one order: mulColGo, in Go, and on amd64 an assembly body (spmv_amd64.s)
// whose scalar SSE2 rounds each product and sum on its own as the Go body
// compiles, so every y bit is the Go body's on either. The batched solve
// paths rely on this to return the same bits as unbatched solves.

// MulMatRange computes Y[lo:hi, :] = (A X)[lo:hi, :] for the row range
// [lo,hi) over k column-major vectors. It performs no dimension checks: it
// is the building block the pooled kernels (here and in internal/kernels)
// schedule over partition-plan chunks.
//
// Columns are processed in groups of four so the row's value/index stream
// is loaded once per group; the remainder runs a two-column group and then
// a single column (all of k = 1). The single column runs mulCol: on amd64
// the assembly row loop, checked like the Go body and handing it any row
// it cannot prove in bounds, elsewhere the Go body itself.
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
		m.mulCol(y[j*rows:(j+1)*rows], x[j*cols:(j+1)*cols], lo, hi)
	}
}

// spmvBlockRows bounds the rows one call of the amd64 assembly row loop
// sweeps. Go cannot preempt assembly asynchronously, so mulCol runs a long
// range as blocks of at most this many rows, and a garbage-collector
// stop-the-world waits for one block at most.
const spmvBlockRows = 4096

// mulColGo is the single-column row loop, y0[lo:hi] = (A x0)[lo:hi]: the
// k = 1 product and the last column of every odd k. It is the body mulCol
// runs on every GOARCH without an assembly body, the body the amd64 one
// hands what it cannot prove safe, and the tests' reference for it.
func (m *CSR) mulColGo(y0, x0 []float64, lo, hi int) {
	rp, ci, v := m.RowPtr, m.ColIdx, m.Val
	for i := lo; i < hi; i++ {
		p, end := rp[i], rp[i+1]
		var a0, a1, a2, a3 float64
		for ; p+4 <= end; p += 4 {
			a0 += v[p] * x0[ci[p]]
			a1 += v[p+1] * x0[ci[p+1]]
			a2 += v[p+2] * x0[ci[p+2]]
			a3 += v[p+3] * x0[ci[p+3]]
		}
		for ; p < end; p++ {
			a0 += v[p] * x0[ci[p]]
		}
		y0[i] = (a0 + a1) + (a2 + a3)
	}
}

// MulMat computes Y = A X serially for k column-major vectors. y must have
// length k*A.Rows and x length k*A.Cols. It streams RowPtr/ColIdx/Val with
// stride-1 accesses and gathers from X at the column indices, which is
// exactly the access pattern whose cache behaviour the paper optimizes.
func (m *CSR) MulMat(y, x []float64, k int) {
	if k < 1 || len(y) != k*m.Rows || len(x) != k*m.Cols {
		panic(fmt.Sprintf("sparse: MulMat dimensions y=%d x=%d k=%d for %s", len(y), len(x), k, m))
	}
	m.MulMatRange(y, x, k, 0, m.Rows)
}

// MulVec computes y = A x serially: the k = 1 MulMat. y must have length
// A.Rows and x length A.Cols.
func (m *CSR) MulVec(y, x []float64) { m.MulMat(y, x, 1) }

// MulVecParallel computes y = A x using the given number of workers
// (<=0 means all CPUs). Rows are split by the cached nnz-balanced partition
// plan (see PartitionPlan) and dispatched on the persistent worker pool, so
// repeated products on the same matrix pay neither goroutine spawning nor
// partition recomputation. Results are bit-identical to MulVec.
func (m *CSR) MulVecParallel(y, x []float64, workers int) {
	if len(y) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVecParallel dimensions y=%d x=%d for %s", len(y), len(x), m))
	}
	pl := m.PartitionPlan(workers)
	if pl.NChunks() <= 1 {
		m.MulMatRange(y, x, 1, 0, m.Rows)
		return
	}
	if err := parallel.Default().Run(pl.Bounds, func(_, lo, hi int) {
		m.MulMatRange(y, x, 1, lo, hi)
	}); err != nil {
		panic(err)
	}
}
