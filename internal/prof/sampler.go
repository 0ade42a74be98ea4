// Package prof is the continuous-profiling subsystem: a background sampler
// that captures windowed CPU profiles (runtime/pprof start/stop cycles) plus
// heap/goroutine snapshots and allocation deltas into a bounded ring buffer.
// Windows are kept as the raw gzipped pprof protobufs the runtime writes;
// `go tool pprof` reads them as-is (`-tags` for the per-label breakdown).
//
// Solve jobs run under pprof labels (job_id, trace_id, fingerprint, phase —
// see Do/WithPhase), so any captured window attributes its CPU samples to
// the jobs and solver phases that were running, joinable against the request
// traces of internal/trace by the shared ids.
package prof

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Options configures a Sampler.
type Options struct {
	// Window is the length of each CPU capture window. Default 10s.
	Window time.Duration
	// Gap is the pause between windows; profiling runs Window out of every
	// Window+Gap, bounding steady-state overhead. Default 50s (one 10s
	// window per minute).
	Gap time.Duration
	// Capacity is the maximum number of retained windows. Default 32.
	Capacity int
	// Registry receives the prof.* series, which the sampler's own
	// accessors read. Nil: a private registry.
	Registry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.Gap < 0 {
		o.Gap = 0
	} else if o.Gap == 0 {
		o.Gap = 50 * time.Second
	}
	if o.Capacity <= 0 {
		o.Capacity = 32
	}
	return o
}

// Sampler captures windowed profiles into a bounded ring buffer. Create
// one with NewSampler, then either run it continuously (Start/Stop) or
// drive single windows synchronously with Capture.
type Sampler struct {
	opt  Options
	ring *ring

	mu      sync.Mutex // guards start/stop transitions
	stop    chan struct{}
	done    chan struct{}
	running bool

	// cpuMu serializes StartCPUProfile within this process's samplers so
	// two Capture calls never race for the one process-wide CPU profiler.
	// /debug/pprof/profile can still hold it; that surfaces as a skipped
	// window, not an error.
	cpuMu sync.Mutex
	// cpuHeld is the window that holds the CPU profiler, nil while none
	// does; see CPUWindow.
	cpuHeld atomic.Pointer[Window]

	started  time.Time
	bookNS   atomic.Int64 // cumulative bookkeeping (non-sleep) nanos
	windows  *telemetry.Counter
	skipped  *telemetry.Counter
	overhead *telemetry.Gauge
	retained *telemetry.Gauge
}

// NewSampler builds a sampler; it does not start the background loop.
func NewSampler(opt Options) *Sampler {
	opt = opt.withDefaults()
	r := opt.Registry
	if r == nil {
		r = telemetry.NewRegistry()
	}
	r.SetHelp("prof_windows_captured", "Profiling windows captured by the continuous sampler.")
	r.SetHelp("prof_windows_cpu_skipped", "Windows whose CPU capture was skipped because the process-wide profiler was busy.")
	r.SetHelp("prof_overhead_pct", "Measured sampler bookkeeping overhead as a percent of wall time, set at the end of each window.")
	r.SetHelp("prof_windows_retained", "Profiling windows currently retained in the ring buffer.")
	return &Sampler{
		opt: opt, ring: newRing(opt.Capacity), started: time.Now(),
		windows:  r.Counter("prof.windows_captured"),
		skipped:  r.Counter("prof.windows_cpu_skipped"),
		overhead: r.Gauge("prof.overhead_pct"),
		retained: r.Gauge("prof.windows_retained"),
	}
}

// Start launches the background capture loop: capture Window, idle Gap,
// repeat. It is a no-op if the loop is already running.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.started = time.Now()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop halts the background loop and waits for any in-flight window to
// finish. Safe to call when not running.
func (s *Sampler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	close(s.stop)
	done := s.done
	s.mu.Unlock()
	<-done
}

func (s *Sampler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.capture(s.opt.Window, stop)
		select {
		case <-stop:
			return
		case <-time.After(s.opt.Gap):
		}
	}
}

// Capture synchronously records one window of duration d and adds it to
// the ring. It blocks for d (plus bookkeeping) and returns the captured
// window. Used by tests and the smoke drill; the background loop uses the
// same path.
func (s *Sampler) Capture(d time.Duration) *Window {
	return s.capture(d, nil)
}

func (s *Sampler) capture(d time.Duration, stop <-chan struct{}) *Window {
	t0 := time.Now()
	w := &Window{Start: t0}

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	var cpuBuf bytes.Buffer
	s.cpuMu.Lock()
	err := pprof.StartCPUProfile(&cpuBuf)
	if err != nil {
		// The one process-wide CPU profiler is busy (e.g. a client is on
		// /debug/pprof/profile). Keep the window — heap/goroutine
		// snapshots and alloc deltas are still meaningful — but mark the
		// CPU part skipped.
		s.cpuMu.Unlock()
		w.CPUSkipped = true
		s.skipped.Inc()
	} else {
		s.cpuHeld.Store(&Window{Start: t0, End: t0.Add(d)})
	}
	setup := time.Since(t0)

	// The window itself: sleep, interruptible by stop.
	if stop != nil {
		select {
		case <-stop:
		case <-time.After(d):
		}
	} else {
		time.Sleep(d)
	}

	b0 := time.Now()
	if err == nil {
		pprof.StopCPUProfile()
		s.cpuHeld.Store(nil)
		s.cpuMu.Unlock()
		w.CPU = cpuBuf.Bytes()
	}

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	w.Goroutines = runtime.NumGoroutine()
	w.HeapAllocBytes = msAfter.HeapAlloc
	w.AllocDeltaBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	w.GCCount = msAfter.NumGC - msBefore.NumGC
	w.Heap = snapshot("heap")
	w.Goroutine = snapshot("goroutine")

	w.End = time.Now()
	w.Dur = w.End.Sub(w.Start)
	s.ring.add(w)
	s.retained.Set(float64(s.ring.len()))

	// Overhead accounting: everything but the sleep is bookkeeping. The
	// denominator is wall time since the sampler started (or was created),
	// so the gauge reflects steady-state duty-cycle overhead, not the
	// in-window cost alone. The total grows before the window count, so
	// BookkeepingPerWindow never counts a window without its time.
	book := setup + time.Since(b0)
	total := s.bookNS.Add(int64(book))
	s.windows.Inc()
	if wall := time.Since(s.started); wall > 0 {
		s.overhead.Set(100 * float64(total) / float64(wall))
	}
	return w
}

// snapshot serializes a pprof runtime profile (gzipped proto, debug=0).
func snapshot(name string) []byte {
	p := pprof.Lookup(name)
	if p == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil
	}
	return buf.Bytes()
}

// CPUWindow reports whether one of s's windows holds the process's one CPU
// profile and, if so, when that window started (its start in the index)
// and when it is due to end. Nil-safe: a nil sampler holds nothing.
func (s *Sampler) CPUWindow() (start, end time.Time, ok bool) {
	if s == nil {
		return
	}
	w := s.cpuHeld.Load()
	if w == nil {
		return
	}
	return w.Start, w.End, true
}

// Windows returns the retained windows, oldest first.
func (s *Sampler) Windows() []*Window { return s.ring.list() }

// Window returns the retained window with the given id, or nil.
func (s *Sampler) Window(id uint64) *Window { return s.ring.get(id) }

// MeasuredOverheadPct returns the prof_overhead_pct gauge: the sampler's
// cumulative bookkeeping time as a percent of wall time since Start (or
// construction), as of the end of the last captured window (0 before the
// first). /profiles serves this value; the overhead guard asserts
// ProjectedOverheadPct instead.
func (s *Sampler) MeasuredOverheadPct() float64 { return s.overhead.Value() }

// BookkeepingPerWindow returns the average non-sleep time spent per
// captured window (profile start/stop, snapshots), over the
// prof_windows_captured count. Most of it is StopCPUProfile's flush wait,
// which is latency in the sampler goroutine rather than CPU stolen from
// solves, so treat it as an upper bound.
func (s *Sampler) BookkeepingPerWindow() time.Duration {
	n := s.windows.Value()
	if n == 0 {
		return 0
	}
	return time.Duration(s.bookNS.Load() / n)
}

// ProjectedOverheadPct projects the measured per-window bookkeeping cost
// onto the sampler's configured cadence: bookkeeping / (window + gap). The
// CI guard asserts this stays under 2% at the production cadence.
func (s *Sampler) ProjectedOverheadPct() float64 {
	period := s.opt.Window + s.opt.Gap
	if period <= 0 {
		return 0
	}
	return 100 * float64(s.BookkeepingPerWindow()) / float64(period)
}

// Opts returns the sampler's effective (defaulted) options.
func (s *Sampler) Opts() Options { return s.opt }
