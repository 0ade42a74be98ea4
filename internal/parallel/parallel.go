// Package parallel provides small fork-join helpers used by the sparse
// kernels and the FSAI setup. It mirrors the OpenMP "parallel for" structure
// used by the reference implementation: a loop range is split into
// contiguous chunks, each processed by one worker goroutine.
//
// All helpers are deterministic with respect to the work they produce: the
// chunking is purely a function of (n, workers), never of scheduling order.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// workerHook, when set, runs at the start of every worker chunk with the
// chunk index. It exists for deterministic fault injection (a delayed
// worker) without a build tag; the disabled cost is one atomic load per
// chunk. See internal/faultinject.
var workerHook atomic.Pointer[func(worker int)]

// SetWorkerHook installs (or, with nil, removes) the process-wide worker
// hook. Only the fault-injection harness should call this.
func SetWorkerHook(h func(worker int)) {
	if h == nil {
		workerHook.Store(nil)
		return
	}
	workerHook.Store(&h)
}

func runWorkerHook(worker int) {
	if h := workerHook.Load(); h != nil {
		(*h)(worker)
	}
}

// PanicError wraps a panic recovered from a worker goroutine, preserving the
// panic value and the worker's stack. Containing the panic (instead of
// letting it kill the process) lets setup pipelines convert a poisoned row
// task into a typed, recoverable error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", e.Value)
}

// MaxWorkers returns the default worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// clampWorkers normalizes a requested worker count for a loop of n
// iterations. It returns at least 1 and never more workers than iterations.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Chunks splits the half-open range [0,n) into at most workers contiguous
// chunks of near-equal size. It returns the chunk boundaries as a slice of
// (lo,hi) pairs flattened into a []int of length 2*k. An empty range yields
// no chunks.
func Chunks(n, workers int) []int {
	if n <= 0 {
		return nil
	}
	workers = clampWorkers(workers, n)
	bounds := make([]int, 0, 2*workers)
	base := n / workers
	rem := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		hi := lo + size
		bounds = append(bounds, lo, hi)
		lo = hi
	}
	return bounds
}

// For runs body(lo, hi) over a chunked partition of [0,n) using the given
// number of workers (<=0 means MaxWorkers). body is invoked concurrently,
// once per chunk, and For returns when all chunks finish. The chunks are
// contiguous and disjoint, so body may write to disjoint slices of a shared
// output without synchronization.
//
// A panic in any chunk never deadlocks the pool: the remaining chunks run to
// completion and the first panic is re-raised on the caller's goroutine as a
// *PanicError, where a recover can turn it into an ordinary error (or use
// ForErr to get the error directly).
func For(n, workers int, body func(lo, hi int)) {
	if err := ForErr(n, workers, body); err != nil {
		panic(err)
	}
}

// ForErr is For with panic containment surfaced as a value: it returns the
// first worker panic as a *PanicError (nil when every chunk completes).
//
// Since the kernel-layer rewrite the chunks run on the persistent Default
// pool instead of freshly spawned goroutines; the chunking (and therefore
// the work each chunk produces) is unchanged.
func ForErr(n, workers int, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		return runChunk(0, 0, n, body)
	}
	bounds := Chunks(n, workers)
	return Default().Run(bounds, func(_, lo, hi int) { body(lo, hi) })
}

// runChunk executes one chunk with the worker hook and panic containment.
func runChunk(worker, lo, hi int, body func(lo, hi int)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if pe, ok := v.(*PanicError); ok {
				err = pe // single-worker path re-entering: keep the original
				return
			}
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	runWorkerHook(worker)
	body(lo, hi)
	return nil
}
