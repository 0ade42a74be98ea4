package sparse

import (
	"sync/atomic"
	"unsafe"
)

// Op/byte counters for the sparse products. When enabled, every product
// sweep (MulMat and its k = 1 forms MulVec / MulVecParallel, and the pooled
// kernels that charge AccountSweep) adds its nominal work — flops and
// memory traffic computed from the matrix shape, not measured per element —
// to a per-kernel-class tally: 2 flops per stored entry per column and
// StreamBytes of matrix traffic per sweep, the same accounting as the live
// roofline of internal/roofline. The offline paper model
// (roofline.SpMVKernel, perfmodel) keeps the paper's 12 B per entry, so
// laying measured totals against it shows the drift between the paper's
// layout and this one.
//
// Vector traffic is counted at its *nominal* minimum (each input element
// read once, each output element written once). The model's line-visit and
// miss terms price the same traffic pessimistically; the gap between the
// two is exactly the cache behaviour the paper's extension optimizes.
//
// The disabled path costs one atomic load per kernel call, which is not
// measurable against a sweep over thousands of entries.
var countingEnabled atomic.Bool

// classCounter is one per-kernel-class tally. The classes split the counted
// work by kernel family so the roofline attribution can distinguish
// single-vector SpMV sweeps from batched SpMM sweeps and from the dense
// BLAS-1 traffic the solver engine reports.
type classCounter struct {
	calls       atomic.Int64
	flops       atomic.Int64
	matrixBytes atomic.Int64
	vectorBytes atomic.Int64
}

func (c *classCounter) add(calls, flops, matrixBytes, vectorBytes int64) {
	c.calls.Add(calls)
	c.flops.Add(flops)
	c.matrixBytes.Add(matrixBytes)
	c.vectorBytes.Add(vectorBytes)
}

func (c *classCounter) read() OpCounts {
	return OpCounts{
		SpMVCalls:   c.calls.Load(),
		Flops:       c.flops.Load(),
		MatrixBytes: c.matrixBytes.Load(),
		VectorBytes: c.vectorBytes.Load(),
	}
}

func (c *classCounter) reset() {
	c.calls.Store(0)
	c.flops.Store(0)
	c.matrixBytes.Store(0)
	c.vectorBytes.Store(0)
}

var classCounters struct {
	spmv  classCounter
	spmm  classCounter
	blas1 classCounter
}

// OpCounts is a snapshot of the sparse-product op/byte counters.
type OpCounts struct {
	SpMVCalls   int64 // kernel invocations (one per sweep, whatever its k)
	Flops       int64 // 2 × stored entries per sweep and column
	MatrixBytes int64 // entry values+indices and row pointers streamed
	VectorBytes int64 // nominal input reads + output writes
}

// OpClassCounts splits the counted work by kernel class: single-vector
// SpMV sweeps, batched k-column SpMM sweeps, and BLAS-1 vector traffic
// reported by the solver engine via AccountBlas1. ReadOpCounters is
// SpMV + SpMM (BLAS-1 is tallied only here: the aggregate is documented as
// sparse-kernel traffic and feeds the existing roofline drift comparison,
// which must not change meaning).
type OpClassCounts struct {
	SpMV  OpCounts
	SpMM  OpCounts
	BLAS1 OpCounts
}

// Bytes returns the total counted traffic.
func (c OpCounts) Bytes() int64 { return c.MatrixBytes + c.VectorBytes }

// AI returns the measured arithmetic intensity in flop/byte (0 when empty).
func (c OpCounts) AI() float64 {
	b := c.Bytes()
	if b == 0 {
		return 0
	}
	return float64(c.Flops) / float64(b)
}

// EnableOpCounters turns kernel op counting on or off.
func EnableOpCounters(on bool) { countingEnabled.Store(on) }

// OpCountersEnabled reports whether kernel op counting is on.
func OpCountersEnabled() bool { return countingEnabled.Load() }

// ResetOpCounters zeroes the per-class counters (the enabled flag is
// unchanged).
func ResetOpCounters() {
	classCounters.spmv.reset()
	classCounters.spmm.reset()
	classCounters.blas1.reset()
}

// ReadOpCounters returns the sparse-product totals: the spmv and spmm
// classes summed.
func ReadOpCounters() OpCounts {
	v, m := classCounters.spmv.read(), classCounters.spmm.read()
	return OpCounts{
		SpMVCalls:   v.SpMVCalls + m.SpMVCalls,
		Flops:       v.Flops + m.Flops,
		MatrixBytes: v.MatrixBytes + m.MatrixBytes,
		VectorBytes: v.VectorBytes + m.VectorBytes,
	}
}

// ReadOpClassCounters returns the current per-kernel-class counter values.
func ReadOpClassCounters() OpClassCounts {
	return OpClassCounts{
		SpMV:  classCounters.spmv.read(),
		SpMM:  classCounters.spmm.read(),
		BLAS1: classCounters.blas1.read(),
	}
}

// AccountBlas1 charges a dense BLAS-1 sweep (flops and bytes as counted by
// the roofline descriptors) to the blas1 class counter. The solver engine
// calls it per kernel invocation; no-op when counting is disabled. BLAS-1
// work is deliberately kept out of the aggregate SpMV counters, whose
// meaning (sparse-sweep traffic vs the perfmodel estimate) predates it.
func AccountBlas1(flops, bytes int64) {
	if !countingEnabled.Load() {
		return
	}
	classCounters.blas1.add(1, flops, 0, bytes)
}

// StreamBytes returns the matrix traffic of one sweep of m: every stored
// value and column index plus every row pointer, read once. Element sizes
// come from the field types, so the count follows the storage layout: with
// []int indices and float64 values it is 16 B per entry and 8 B per row
// pointer.
func (m *CSR) StreamBytes() int64 {
	perNNZ := int64(unsafe.Sizeof(m.Val[0]) + unsafe.Sizeof(m.ColIdx[0]))
	perPtr := int64(unsafe.Sizeof(m.RowPtr[0]))
	return int64(m.NNZ())*perNNZ + int64(m.Rows+1)*perPtr
}

// AccountSweep charges one product sweep of m over k vectors to the op
// counters (no-op when counting is disabled): the matrix stream is read
// once, the flops and vector traffic scale with k. A k = 1 sweep lands in
// the spmv class, a wider one in spmm. MulMat charges itself; callers that
// drive MulMatRange over partition-plan chunks call it once per sweep.
func (m *CSR) AccountSweep(k int) {
	if !countingEnabled.Load() {
		return
	}
	class := &classCounters.spmv
	if k > 1 {
		class = &classCounters.spmm
	}
	kk := int64(k)
	class.add(1, 2*int64(m.NNZ())*kk, m.StreamBytes(), 8*int64(m.Cols+m.Rows)*kk)
}
