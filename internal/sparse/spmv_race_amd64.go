//go:build race

package sparse

import (
	"runtime"
	"unsafe"
)

// raceSpMV reports to the race detector, which does not see memory
// accesses inside assembly, what spmvRows read and wrote for the rows
// [lo, hi) it completed: rp[lo:hi+1], the rows' ci and v entries, the span
// of x0 between their least and greatest column, and y0[lo:hi].
func raceSpMV(y0, x0, v []float64, ci, rp []int, lo, hi int) {
	if hi <= lo {
		return
	}
	const w = 8 // bytes per float64, and per int on amd64
	runtime.RaceReadRange(unsafe.Pointer(&rp[lo]), (hi-lo+1)*w)
	if p, end := rp[lo], rp[hi]; p < end {
		runtime.RaceReadRange(unsafe.Pointer(&ci[p]), (end-p)*w)
		runtime.RaceReadRange(unsafe.Pointer(&v[p]), (end-p)*w)
		cmin, cmax := ci[p], ci[p]
		for _, c := range ci[p+1 : end] {
			cmin, cmax = min(cmin, c), max(cmax, c)
		}
		runtime.RaceReadRange(unsafe.Pointer(&x0[cmin]), (cmax-cmin+1)*w)
	}
	runtime.RaceWriteRange(unsafe.Pointer(&y0[lo]), (hi-lo)*w)
}
