package roofline

import (
	"repro/internal/arch"
	"repro/internal/sparse"
)

// Achieved places one kernel class of a *finished* solve on the machine's
// roofline: nominal work (estimate's model, the one work account of the
// solve kernels) divided by the measured wall time of that kernel class
// from krylov.Timing. This is the live counterpart of the offline Fig.-4
// model — it shows per production solve how far each kernel sits from the
// bandwidth roof, and whether cache-aware fill-in is moving it.
type Achieved struct {
	// Kernel is "spmv" (y = Ap products), "apply_g" (z = GᵀGr, two sweeps
	// of the factor per application) or "blas1" (the fused vector kernels).
	Kernel string `json:"kernel"`
	// Calls is the number of kernel executions attributed (SpMV sweeps,
	// preconditioner applications, or CG iterations for blas1).
	Calls int64 `json:"calls"`
	// Flops and Bytes are the nominal totals over the solve.
	Flops float64 `json:"flops"`
	Bytes float64 `json:"bytes"`
	// Seconds is the measured wall time of the kernel class.
	Seconds float64 `json:"seconds"`
	// AchievedFlops is flops/Seconds — the value exported as the
	// roofline_achieved_flops gauge (flop/s).
	AchievedFlops float64 `json:"achieved_flops"`
	// AchievedBandwidthBytes is Bytes/Seconds — the value exported as the
	// roofline_achieved_bandwidth_bytes gauge (B/s).
	AchievedBandwidthBytes float64 `json:"achieved_bandwidth_bytes"`
	// AI is the nominal arithmetic intensity (flop/byte).
	AI float64 `json:"ai"`
	// AttainableFlops is the roofline bound min(peak, AI×bandwidth) on the
	// machine, in flop/s.
	AttainableFlops float64 `json:"attainable_flops"`
	// PctOfAttainable is 100×AchievedFlops/AttainableFlops.
	PctOfAttainable float64 `json:"pct_of_attainable"`
	// Bound is "bandwidth" or "compute" — which roof limits the kernel.
	Bound string `json:"bound"`
}

// kernel names used across gauges, run reports and /roofline.
const (
	KernelSpMV   = "spmv"
	KernelApplyG = "apply_g"
	KernelBLAS1  = "blas1"
)

// SolveEstimate computes the achieved roofline placement of a finished PCG
// solve from its kernel-class wall times (krylov.Timing, in nanoseconds —
// plain int64s so this package needs no krylov import).
//
//   - spmv: iters sweeps of A
//   - apply_g: iters applications of M = GᵀG, two sweeps of the factor each
//     (g nil — e.g. Jacobi or identity preconditioning — omits the entry)
//   - blas1: per iteration the fused engine does 12n flops over 104n bytes
//     (dot 2n/16n, fused x/r update 6n/48n, dot 2n/16n, xpay 2n/24n)
//
// A sweep costs 2 flops per stored entry, the matrix's StreamBytes and
// nominal vector traffic (input read once, output written once). Kernel classes with zero
// measured time (timing not collected) are omitted, so an empty slice means
// "no attribution possible".
func SolveEstimate(a, g *sparse.CSR, iters int, spmvNS, precondNS, blas1NS int64, machine arch.Arch) []Achieved {
	return estimate(KernelSpMV, a, g, iters, int64(iters), spmvNS, precondNS, blas1NS, machine)
}

// KernelSpMM is the kernel-class name of the batched multi-vector product
// (one matrix stream serving k right-hand-side columns).
const KernelSpMM = "spmm"

// BlockSolveEstimate is the batched counterpart of SolveEstimate for a
// finished block-PCG solve: sweeps is the number of block iterations (matrix
// passes), colIters the sum of per-column iteration counts (≤ sweeps×k when
// columns deflate early). The matrix stream is charged once per sweep — the
// whole point of batching — while vector traffic and BLAS-1 work scale with
// colIters, so the spmm entry's AI reports the batch's achieved arithmetic
// intensity: it rises with the effective block width colIters/sweeps.
func BlockSolveEstimate(a, g *sparse.CSR, sweeps int, colIters int64, spmvNS, precondNS, blas1NS int64, machine arch.Arch) []Achieved {
	return estimate(KernelSpMM, a, g, sweeps, colIters, spmvNS, precondNS, blas1NS, machine)
}

// estimate prices a solve of sweeps matrix passes serving colIters column
// iterations; a one-column solve is sweeps == colIters. product names the
// A-product kernel class (spmv or spmm).
func estimate(product string, a, g *sparse.CSR, sweeps int, colIters int64, spmvNS, precondNS, blas1NS int64, machine arch.Arch) []Achieved {
	if a == nil || sweeps <= 0 || colIters <= 0 {
		return nil
	}
	sw := float64(sweeps)
	ci := float64(colIters)
	out := make([]Achieved, 0, 3)
	// Matrix stream once per sweep; per-column vector gathers per column-iter.
	out = place(out, machine, product, int64(sweeps), 2*float64(a.NNZ())*ci,
		float64(a.StreamBytes())*sw+8*float64(a.Cols+a.Rows)*ci, spmvNS)
	if g != nil {
		out = place(out, machine, KernelApplyG, int64(sweeps), 2*2*float64(g.NNZ())*ci,
			2*float64(g.StreamBytes())*sw+2*8*float64(g.Cols+g.Rows)*ci, precondNS)
	}
	n := float64(a.Rows)
	return place(out, machine, KernelBLAS1, int64(sweeps), 12*n*ci, 104*n*ci, blas1NS)
}

// place appends one kernel class's achieved placement on the machine's
// roofline; a class with no measured time or no work is skipped.
func place(out []Achieved, machine arch.Arch, name string, calls int64, flops, bytes float64, ns int64) []Achieved {
	if ns <= 0 || flops <= 0 {
		return out
	}
	sec := float64(ns) / 1e9
	k := Kernel{Name: name, Flops: flops, Bytes: bytes}
	att := Attainable(k, machine)
	e := Achieved{
		Kernel:                 name,
		Calls:                  calls,
		Flops:                  flops,
		Bytes:                  bytes,
		Seconds:                sec,
		AchievedFlops:          flops / sec,
		AchievedBandwidthBytes: bytes / sec,
		AI:                     k.AI(),
		AttainableFlops:        att,
		Bound:                  "compute",
	}
	if BandwidthBound(k, machine) {
		e.Bound = "bandwidth"
	}
	if att > 0 {
		e.PctOfAttainable = 100 * e.AchievedFlops / att
	}
	return append(out, e)
}
