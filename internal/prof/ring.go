package prof

import (
	"sync"
	"time"
)

// Window is one captured profiling window: a CPU profile covering
// [Start, End] plus point-in-time heap/goroutine snapshots and allocation
// deltas taken over the same interval.
type Window struct {
	// ID is a monotonically increasing window id, unique for the life of
	// the sampler. IDs survive eviction: after the ring wraps, the index
	// still reports ids in increasing order with the oldest evicted.
	ID uint64 `json:"id"`

	Start time.Time     `json:"start"`
	End   time.Time     `json:"end"`
	Dur   time.Duration `json:"duration_ns"`

	// CPU is the raw gzipped pprof CPU profile (.pb.gz), nil when the
	// window's CPU capture was skipped (e.g. /debug/pprof/profile held the
	// process-wide profiler).
	CPU []byte `json:"-"`
	// Heap and Goroutine are raw gzipped pprof snapshots taken at the end
	// of the window.
	Heap      []byte `json:"-"`
	Goroutine []byte `json:"-"`

	// CPUSkipped reports that the CPU capture could not start because
	// another CPU profile was active process-wide.
	CPUSkipped bool `json:"cpu_skipped,omitempty"`

	// Goroutines is the goroutine count at window end.
	Goroutines int `json:"goroutines"`
	// HeapAllocBytes is the live heap at window end.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// AllocDeltaBytes is the total bytes allocated during the window
	// (mallocs, not live) — the allocation-rate signal.
	AllocDeltaBytes uint64 `json:"alloc_delta_bytes"`
	// GCCount is the number of GC cycles completed during the window.
	GCCount uint32 `json:"gc_count"`
}

// ring is a bounded FIFO of captured windows. When full, adding a window
// evicts the oldest. All methods are safe for concurrent use.
type ring struct {
	mu   sync.RWMutex
	buf  []*Window
	head int // index of oldest
	n    int // number of valid entries
	next uint64
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{buf: make([]*Window, capacity)}
}

// add assigns the next window id, appends w, and evicts the oldest window
// if the ring is at capacity. It returns the assigned id.
func (r *ring) add(w *Window) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	w.ID = r.next
	if r.n == len(r.buf) {
		r.buf[r.head] = w
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.buf[(r.head+r.n)%len(r.buf)] = w
		r.n++
	}
	return w.ID
}

// list returns the retained windows, oldest first.
func (r *ring) list() []*Window {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Window, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// get returns the window with the given id, or nil if it was never
// captured or has been evicted.
func (r *ring) get(id uint64) *Window {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := 0; i < r.n; i++ {
		if w := r.buf[(r.head+i)%len(r.buf)]; w.ID == id {
			return w
		}
	}
	return nil
}

// len returns the number of retained windows.
func (r *ring) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}
