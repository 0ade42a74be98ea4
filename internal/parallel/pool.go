package parallel

import (
	"context"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle worker polls for the next dispatch, and a
// caller for its workers, before blocking on a channel. It has to outlast
// the gap to the next dispatch plus the imbalance between a dispatch's
// chunks, and it bounds the CPU a pool burns after its last dispatch;
// docs/performance.md gives the measurements behind 200 µs.
const spinWindow = 200 * time.Microsecond

// yieldPolls is how many polls a spinner makes between runtime.Gosched
// calls, a few microseconds' worth. Polling holds the goroutine's P, so
// without a yield a spinner starves goroutines that wait for one, such as
// fsaid's concurrent requests during a setup. Yielding on every poll gives
// the P up each time, and a worker doing so missed up to 74% of short
// dispatches in some runs of BenchmarkPoolShortChunks.
const yieldPolls = 256

// Pool is a persistent fork-join worker pool. Workers are spawned once; a
// dispatch publishes its job and one atomic dispatch word (sequence number
// and participant count), the participants drain a shared chunk cursor
// (static partition plus work stealing at chunk granularity), and a
// pending count returns control to the caller. This removes the
// goroutine-spawn and sync.WaitGroup cost that For/ForErr paid on every call
// — a real cost in the solve hot path, where every CG iteration issues ~3
// SpMV dispatches plus the parallel BLAS-1 sweeps.
//
// Spin, then park: like an OpenMP thread team between parallel regions, an
// idle worker polls the dispatch word for spinWindow after each drain, and
// only then sets its parked flag and blocks on its wake channel. A
// dispatcher sends a wake token only to a participant whose parked flag it
// clears, so back-to-back kernels reach polling workers without a
// scheduler wake-up, which on a 2-vCPU KVM guest started a worker a median
// ~62 µs late. The caller likewise polls pending for spinWindow before it
// blocks on done.
//
// Concurrency contract: one dispatch runs at a time. A Run issued while the
// pool is busy — from another goroutine, or a nested kernel on the same
// goroutine — degrades to inline execution on the caller, so the pool can
// never deadlock and correctness never depends on it being available. The
// caller always participates in its own dispatch, so a Pool of size 1 does
// all work inline with zero synchronization.
//
// Panic containment matches For: a panicking chunk never deadlocks the
// barrier; remaining chunks run to completion and the first panic is
// returned as a *PanicError.
type Pool struct {
	size   int             // max participants per dispatch, caller included
	mu     sync.Mutex      // serializes dispatches; TryLock-degraded to inline
	wake   []chan struct{} // one per worker goroutine (size-1 of them), 1-buffered
	parked []atomic.Bool   // worker i blocks on wake[i] only while parked[i]
	done   chan struct{}   // 1-buffered; may hold a stale token, see await
	exited sync.WaitGroup

	// word is the dispatch word: sequence number << 16 | participants.
	// Worker i takes part in a dispatch when i+1 < participants. 48 bits of
	// sequence do not wrap while a parked worker waits for its next turn.
	word atomic.Uint64

	// Job state, valid for the duration of one dispatch.
	bounds  []int
	body    func(chunk, lo, hi int)
	labels  context.Context // pprof label context workers adopt, may be nil
	cursor  atomic.Int64
	pending atomic.Int64
	fail    atomic.Pointer[PanicError]

	dispatches atomic.Int64
	inlineRuns atomic.Int64
	closed     atomic.Bool
}

// NewPool returns a pool that runs dispatches with up to size concurrent
// participants (the calling goroutine plus size-1 persistent workers).
// size is clamped to [1, 65535].
func NewPool(size int) *Pool {
	size = max(1, min(size, 0xffff))
	p := &Pool{size: size, done: make(chan struct{}, 1)}
	p.wake = make([]chan struct{}, size-1)
	p.parked = make([]atomic.Bool, size-1)
	p.exited.Add(size - 1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the process-wide pool, created on first use with
// MaxWorkers participants. All kernel layers share it; its TryLock-inline
// fallback keeps concurrent solves safe without serializing them.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(MaxWorkers()) })
	return defaultPool
}

// Size returns the maximum number of concurrent participants per dispatch.
func (p *Pool) Size() int { return p.size }

// Dispatches returns the number of pooled (non-inline) dispatches issued.
func (p *Pool) Dispatches() int64 { return p.dispatches.Load() }

// InlineRuns returns how many Run calls degraded to inline execution
// because the pool was busy with another dispatch.
func (p *Pool) InlineRuns() int64 { return p.inlineRuns.Load() }

// Close stops the worker goroutines and returns once they have exited. The
// pool must be idle; only tests that create throwaway pools need this — the
// Default pool lives for the process.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, ch := range p.wake {
		close(ch)
	}
	p.exited.Wait()
}

// worker is worker i's loop: wait for a dispatch that needs it, drain the
// chunk cursor, count itself out of pending.
func (p *Pool) worker(i int) {
	defer p.exited.Done()
	var seq uint64 // sequence number of the last dispatch this worker drained
	for {
		w, ok := p.next(i, seq)
		if !ok {
			return
		}
		seq = w >> 16
		// Adopt the dispatch's pprof label context (job id, solver phase)
		// for the duration of the drain, so CPU samples taken on pool
		// workers attribute to the solve that dispatched them — goroutine
		// labels do not propagate to pre-spawned goroutines by themselves.
		// The submitting goroutine already carries its own labels. Reset
		// afterwards so idle workers never hold stale attributions.
		if lctx := p.labels; lctx != nil {
			pprof.SetGoroutineLabels(lctx)
			p.drain()
			pprof.SetGoroutineLabels(context.Background())
		} else {
			p.drain()
		}
		// No job field may be read past this point: the caller may return
		// and publish the next dispatch once pending reaches zero.
		if p.pending.Add(-1) == 0 {
			select {
			case p.done <- struct{}{}:
			default: // a stale token already waits; await re-checks pending
			}
		}
	}
}

// next returns the dispatch word of the first dispatch after seq that
// worker i takes part in, or false once the pool is closed. It polls the
// word for spinWindow, then parks: it sets its flag, re-checks the word for
// a dispatch that was published before the flag was visible, and blocks on
// its wake channel, which a dispatcher sends on only after clearing the
// flag.
func (p *Pool) next(i int, seq uint64) (uint64, bool) {
	var w uint64
	needed := func() bool {
		w = p.word.Load()
		return w>>16 != seq && uint64(i+1) < w&0xffff
	}
	for {
		if spinUntil(func() bool { return p.closed.Load() || needed() }) {
			return w, !p.closed.Load() // Close requires an idle pool
		}
		p.parked[i].Store(true)
		if needed() && p.parked[i].CompareAndSwap(true, false) {
			return w, true
		}
		if _, ok := <-p.wake[i]; !ok {
			return 0, false
		}
		// A dispatcher can clear the flag after this worker took its
		// dispatch from the word and parked again; its token is stale.
		if needed() {
			return w, true
		}
	}
}

// spinUntil polls cond for spinWindow and reports whether it held. It
// yields the P every yieldPolls polls.
func spinUntil(cond func() bool) bool {
	for start, n := time.Now(), 1; time.Since(start) < spinWindow; n++ {
		if cond() {
			return true
		}
		if n%yieldPolls == 0 {
			runtime.Gosched()
		}
	}
	return false
}

// drain claims chunks off the shared cursor until none remain.
func (p *Pool) drain() {
	n := int64(len(p.bounds) / 2)
	for {
		c := p.cursor.Add(1) - 1
		if c >= n {
			return
		}
		if err := runPoolChunk(int(c), p.bounds[2*c], p.bounds[2*c+1], p.body); err != nil {
			p.fail.CompareAndSwap(nil, err)
		}
	}
}

// Run executes body once per (lo,hi) chunk of bounds (flattened pairs, as
// produced by Chunks or sparse partition plans), using up to Size
// participants including the caller. It returns when every chunk finished;
// the first contained panic is returned as a *PanicError.
//
// Run performs no allocations itself, so a caller that reuses a pre-bound
// body (see internal/kernels) pays zero heap traffic per dispatch.
func (p *Pool) Run(bounds []int, body func(chunk, lo, hi int)) error {
	return p.RunLabeled(bounds, body, nil)
}

// RunLabeled is Run with a pprof label context: worker goroutines adopt
// lctx's labels while draining this dispatch's chunks, so profile samples
// on the persistent workers attribute to the submitting solve. A nil lctx
// is exactly Run. The inline-degraded paths need no adoption — they run on
// the calling goroutine, which already carries its labels.
func (p *Pool) RunLabeled(bounds []int, body func(chunk, lo, hi int), lctx context.Context) error {
	nChunks := len(bounds) / 2
	if nChunks == 0 {
		return nil
	}
	participants := p.size
	if participants > nChunks {
		participants = nChunks
	}
	if participants <= 1 {
		return runInline(bounds, body)
	}
	if !p.mu.TryLock() {
		// Pool busy: another dispatch is in flight (possibly from this very
		// goroutine via a nested kernel). Degrade to inline execution —
		// correctness never depends on the pool being free.
		p.inlineRuns.Add(1)
		return runInline(bounds, body)
	}
	p.bounds, p.body, p.labels = bounds, body, lctx
	p.cursor.Store(0)
	p.fail.Store(nil)
	p.pending.Store(int64(participants))
	p.dispatches.Add(1)
	p.word.Store((p.word.Load()>>16+1)<<16 | uint64(participants))
	for i := 0; i < participants-1; i++ {
		if p.parked[i].CompareAndSwap(true, false) {
			p.wake[i] <- struct{}{}
		}
	}
	p.drain()
	if p.pending.Add(-1) != 0 {
		p.await()
	}
	err := p.fail.Load()
	p.bounds, p.body, p.labels = nil, nil, nil
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return nil
}

// await returns once every worker of the current dispatch has counted itself
// out of pending: it polls for spinWindow, then blocks on done. A caller
// that saw pending reach zero while polling leaves the last worker's token
// in done, where it can release a later dispatch's receive early, so pending
// is re-checked after every token.
func (p *Pool) await() {
	if spinUntil(func() bool { return p.pending.Load() == 0 }) {
		return
	}
	for p.pending.Load() != 0 {
		<-p.done
	}
}

// runInline executes every chunk on the calling goroutine, with the same
// hook and containment semantics as a pooled dispatch.
func runInline(bounds []int, body func(chunk, lo, hi int)) error {
	var first *PanicError
	for c := 0; 2*c < len(bounds); c++ {
		if err := runPoolChunk(c, bounds[2*c], bounds[2*c+1], body); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return nil
}

// runPoolChunk executes one chunk with the worker hook and panic containment.
func runPoolChunk(chunk, lo, hi int, body func(chunk, lo, hi int)) (err *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			if pe, ok := v.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	runWorkerHook(chunk)
	body(chunk, lo, hi)
	return nil
}
