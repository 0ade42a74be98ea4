package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/sparse"
)

// hostRef is the benchmark's own yardstick for how fast the host runs at a
// given moment: a CSR mat-vec over private copies of a workload's matrices,
// split over the workload's worker count. The host the benchmark was sized
// on is shared with other machines' work, and its speed drifts by up to 2×
// over minutes. A time divided by a reference pass measured just before it
// drifts several times less (README.md gives the numbers), so every time
// metric of an untraced run is corrected for host speed: it is scaled by
// (nominal / the reference time measured next to it)^refElasticity.
//
// The copies use the benchmark's own index type and loop, so no change to
// the repository's CSR storage or kernels moves the yardstick.
type hostRef struct {
	mats    []refMatrix
	x, y    []float64
	workers int
	nominal time.Duration // one pass on the sizing host when it was quiet
}

type refMatrix struct {
	rowPtr, col []int32
	val         []float64
}

func newHostRef(workers int, nominal time.Duration, mats ...*sparse.CSR) *hostRef {
	h := &hostRef{workers: workers, nominal: nominal}
	n := 0
	for _, a := range mats {
		m := refMatrix{rowPtr: make([]int32, a.Rows+1), col: make([]int32, a.NNZ()), val: append([]float64(nil), a.Val...)}
		for i, p := range a.RowPtr {
			m.rowPtr[i] = int32(p)
		}
		for k, c := range a.ColIdx {
			m.col[k] = int32(c)
		}
		h.mats = append(h.mats, m)
		n = max(n, a.Rows, a.Cols)
	}
	h.x, h.y = make([]float64, n), make([]float64, n)
	for i := range h.x {
		h.x[i] = 1 / float64(i+1)
	}
	return h
}

// refMinTime is how long one reference measurement runs at least.
const refMinTime = 4 * time.Millisecond

// measure returns the mean time of one pass over every matrix, repeating
// passes for at least refMinTime.
func (h *hostRef) measure() time.Duration {
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < refMinTime {
		for _, m := range h.mats {
			h.mulVec(m)
		}
		passes++
	}
	return time.Since(start) / time.Duration(passes)
}

// refElasticity is how far a workload's times follow the reference's: on
// the sizing host, across runs, a workload's time moved by about
// (reference time)^0.75, on every workload. Dividing by the reference time
// itself over-corrects, because a pure mat-vec stream slows more under
// contention than a workload that spends part of its time elsewhere.
const refElasticity = 0.75

// scale measures the host now and returns the factor that turns a time
// measured next to it into one at nominal speed. A traced run has no
// reference, a nil hostRef, and corrects nothing: its per-layer times are
// compared with each other, not across runs.
func (h *hostRef) scale() float64 {
	if h == nil {
		return 1
	}
	return math.Pow(float64(h.nominal)/float64(h.measure()), refElasticity)
}

func (h *hostRef) mulVec(m refMatrix) {
	rows := len(m.rowPtr) - 1
	rowsRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				s += m.val[k] * h.x[m.col[k]]
			}
			h.y[i] = s
		}
	}
	if h.workers <= 1 {
		rowsRange(0, rows)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			rowsRange(lo, hi)
		}(w*rows/h.workers, (w+1)*rows/h.workers)
	}
	wg.Wait()
}
