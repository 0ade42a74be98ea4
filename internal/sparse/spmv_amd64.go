package sparse

// spmvRows computes y0[i] = (A x0)[i] for rows i in [lo, hi) of the CSR
// (rp, ci, v), with mulColGo's arithmetic: four accumulators over entries
// p, p+1, p+2, p+3, the remainder into the first, y = (a0+a1)+(a2+a3),
// each product and sum rounded on its own (spmv_amd64.s). It returns hi,
// or the first row it cannot prove in bounds, without writing that row's
// y: one whose rp[i] > rp[i+1], whose rp[i+1] passes min(len(ci), len(v)),
// or that holds a column index not below len(x0). Each bound is compared
// unsigned, before the load it guards. The caller guarantees
// 0 <= lo < hi < len(rp) and hi <= len(y0).
//
//go:noescape
func spmvRows(y0, x0, v []float64, ci, rp []int, lo, hi int) int

// mulCol is the single-column row loop on amd64: the assembly body, run in
// preemption blocks, with the Go body taking over from the first row the
// assembly refuses. So every range gets mulColGo's bits, and malformed
// input ends as mulColGo ends it: the same bounds panic, or the same y for
// a decreasing RowPtr, which mulColGo treats as an empty row.
func (m *CSR) mulCol(y0, x0 []float64, lo, hi int) {
	rp := m.RowPtr
	if lo < 0 || hi >= len(rp) || hi > len(y0) {
		m.mulColGo(y0, x0, lo, hi)
		return
	}
	for lo < hi {
		end := min(lo+spmvBlockRows, hi)
		stop := spmvRows(y0, x0, m.Val, m.ColIdx, rp, lo, end)
		raceSpMV(y0, x0, m.Val, m.ColIdx, rp, lo, stop)
		if stop < end {
			m.mulColGo(y0, x0, stop, hi)
			return
		}
		lo = end
	}
}
