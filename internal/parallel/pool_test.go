package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunCoversAllChunks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 1000
	for _, workers := range []int{1, 2, 3, 4, 7} {
		bounds := Chunks(n, workers)
		seen := make([]int32, n)
		err := p.Run(bounds, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestPoolRunEmptyBounds(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if err := p.Run(nil, func(_, _, _ int) { t.Fatal("body called") }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRunPanicContainment(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	bounds := Chunks(100, 4)
	var visited int32
	err := p.Run(bounds, func(chunk, lo, hi int) {
		if chunk == 1 {
			panic("boom")
		}
		atomic.AddInt32(&visited, int32(hi-lo))
	})
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	// The other three chunks (75 indices) must still have run: a panicking
	// chunk doesn't abort its siblings.
	if visited != 75 {
		t.Fatalf("surviving chunks covered %d indices, want 75", visited)
	}
}

func TestPoolNestedRunFallsBackInline(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	inner0 := p.InlineRuns()
	var innerSum int64
	err := p.Run(Chunks(4, 4), func(_, lo, hi int) {
		// A nested Run sees the pool busy and must execute inline rather
		// than deadlock waiting for workers that are waiting for us.
		_ = p.Run(Chunks(10, 2), func(_, l, h int) {
			for i := l; i < h; i++ {
				atomic.AddInt64(&innerSum, int64(i))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * (9 * 10 / 2)); innerSum != want {
		t.Fatalf("nested runs computed %d, want %d", innerSum, want)
	}
	if p.InlineRuns() == inner0 {
		t.Fatal("expected nested dispatches to be counted as inline runs")
	}
}

func TestPoolDispatchCounterAndGoroutineStability(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Warm up so the worker goroutines exist before we count.
	_ = p.Run(Chunks(64, 4), func(_, _, _ int) {})
	before := runtime.NumGoroutine()
	d0 := p.Dispatches()
	for k := 0; k < 50; k++ {
		if err := p.Run(Chunks(64, 4), func(_, _, _ int) {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Dispatches() - d0; got != 50 {
		t.Fatalf("dispatches advanced by %d, want 50", got)
	}
	after := runtime.NumGoroutine()
	// The whole point of the pool: repeated dispatches spawn no goroutines.
	if after > before+1 {
		t.Fatalf("goroutine count grew from %d to %d across 50 dispatches", before, after)
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				n := 64 + c
				sum := make([]int64, 1)
				err := p.Run(Chunks(n, 4), func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&sum[0], 1)
					}
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if sum[0] != int64(n) {
					t.Errorf("client %d: covered %d of %d", c, sum[0], n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestPoolRunWorkerHook(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var calls int32
	SetWorkerHook(func(int) { atomic.AddInt32(&calls, 1) })
	defer SetWorkerHook(nil)
	if err := p.Run(Chunks(64, 4), func(_, _, _ int) {}); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("worker hook called %d times, want 4 (once per chunk)", calls)
	}
}

func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return one process-wide pool")
	}
	if Default().Size() != MaxWorkers() {
		t.Fatalf("default pool size %d, want MaxWorkers=%d", Default().Size(), MaxWorkers())
	}
}

// TestPoolSpinParkProtocol drives thousands of dispatches of jittered tiny
// chunks through pools of 1–4 participants. Dispatches of one to six chunks
// leave some workers out, random gaps let the workers either catch the next
// dispatch while they spin or park before it, and a few chunks outlast the
// caller's polling so it blocks on done. Every chunk must run exactly once
// and finish before its Run returns.
func TestPoolSpinParkProtocol(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(26))
	for size := 1; size <= 4; size++ {
		p := NewPool(size)
		var epoch atomic.Int64 // k while dispatch k runs, -k once its Run returned
		var late atomic.Int64
		for k := int64(1); k <= 1500; k++ {
			n := 1 + rng.Intn(6)
			jitter := make([]time.Duration, n)
			for c := range jitter {
				jitter[c] = time.Duration(rng.Intn(20)) * time.Microsecond
				if rng.Intn(16) == 0 { // outlasts the caller's polling
					jitter[c] += 3 * spinWindow / 2
				}
			}
			ran := make([]atomic.Int32, n)
			epoch.Store(k)
			err := p.Run(Chunks(n, n), func(c, _, _ int) {
				for end := time.Now().Add(jitter[c]); time.Now().Before(end); {
				}
				ran[c].Add(1)
				if epoch.Load() != k {
					late.Add(1)
				}
			})
			epoch.Store(-k)
			if err != nil {
				t.Fatalf("size %d dispatch %d: %v", size, k, err)
			}
			for c := range ran {
				if got := ran[c].Load(); got != 1 {
					t.Fatalf("size %d dispatch %d: chunk %d of %d ran %d times before Run returned", size, k, c, n, got)
				}
			}
			if rng.Intn(8) == 0 {
				time.Sleep(2 * spinWindow)
			}
		}
		p.Close() // workers of the last dispatch are still polling
		if n := late.Load(); n > 0 {
			t.Fatalf("size %d: %d chunks ran after their Run returned", size, n)
		}
	}
	if n := goroutinesAfterClose(base); n > base {
		t.Fatalf("goroutines: %d after Close, %d before the pools", n, base)
	}
}

// goroutinesAfterClose returns the goroutine count once it is back at base,
// or after a second. A worker is still counted for a moment after Close
// saw its Done, until the goroutine has exited; goroutines of earlier tests
// may still be exiting too, so callers fail only on a count above base.
func goroutinesAfterClose(base int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestPoolIdleWorkersParkAndClose checks that an idle pool's workers stop
// polling and park, and that Close stops polling and parked workers alike.
// Worker 0 takes part in the dispatch and polls after it; workers 1 and 2
// never take part.
func TestPoolIdleWorkersParkAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, park := range []bool{false, true} {
		p := NewPool(4)
		if err := p.Run(Chunks(2, 2), func(_, _, _ int) {}); err != nil {
			t.Fatal(err)
		}
		if park {
			deadline := time.Now().Add(5 * time.Second)
			for i := range p.parked {
				for !p.parked[i].Load() {
					if time.Now().After(deadline) {
						t.Fatalf("worker %d still polling 5 s after the last dispatch", i)
					}
					time.Sleep(spinWindow)
				}
			}
		}
		p.Close()
		if n := goroutinesAfterClose(base); n > base {
			t.Fatalf("park=%v: goroutines %d after Close, %d before NewPool", park, n, base)
		}
	}
}

// BenchmarkPoolShortChunks dispatches two ~50 µs chunks back to back, on a
// 2-participant pool and inline. caller-both-% is the share of dispatches
// whose two chunks did not overlap in time: the caller ran both because the
// worker had not started yet. Inline it is 100 by construction.
func BenchmarkPoolShortChunks(b *testing.B) {
	const chunk = 50 * time.Microsecond
	bounds := Chunks(2, 2)
	var start, end [2]time.Time
	body := func(c, _, _ int) {
		start[c] = time.Now()
		for time.Since(start[c]) < chunk {
		}
		end[c] = time.Now()
	}
	for _, mode := range []string{"pooled", "inline"} {
		b.Run(mode, func(b *testing.B) {
			p := NewPool(2)
			defer p.Close()
			run := p.Run
			if mode == "inline" {
				run = runInline
			}
			serial := 0
			for i := 0; i < b.N; i++ {
				if err := run(bounds, body); err != nil {
					b.Fatal(err)
				}
				if !start[0].Before(end[1]) || !start[1].Before(end[0]) {
					serial++
				}
			}
			b.ReportMetric(100*float64(serial)/float64(b.N), "caller-both-%")
		})
	}
}
