package prof

import (
	"context"
	"os"
	"runtime/pprof"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/prof/proftest"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// burnCPU spins until d elapses so CPU windows have samples to attribute.
func burnCPU(d time.Duration) float64 {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestRingEvictsOldestAtCapacity(t *testing.T) {
	r := newRing(3)
	for i := 0; i < 5; i++ {
		r.add(&Window{Start: time.Now()})
	}
	ws := r.list()
	if len(ws) != 3 {
		t.Fatalf("ring len = %d, want 3", len(ws))
	}
	// IDs are 1..5; the two oldest (1, 2) must be gone.
	wantIDs := []uint64{3, 4, 5}
	for i, w := range ws {
		if w.ID != wantIDs[i] {
			t.Errorf("window[%d].ID = %d, want %d", i, w.ID, wantIDs[i])
		}
	}
	if got := r.get(1); got != nil {
		t.Errorf("evicted window 1 still retrievable")
	}
	if got := r.get(4); got == nil || got.ID != 4 {
		t.Errorf("window 4 not retrievable")
	}
}

func TestRingIDsMonotonicAcrossWrap(t *testing.T) {
	r := newRing(2)
	var last uint64
	for i := 0; i < 10; i++ {
		id := r.add(&Window{})
		if id <= last {
			t.Fatalf("id %d not monotonically increasing after %d", id, last)
		}
		last = id
	}
}

func TestCaptureWindowHasCPUProfile(t *testing.T) {
	s := NewSampler(Options{Window: 50 * time.Millisecond, Capacity: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		burnCPU(120 * time.Millisecond)
	}()
	w := s.Capture(100 * time.Millisecond)
	<-done
	if w == nil {
		t.Fatal("Capture returned nil")
	}
	if w.CPUSkipped {
		t.Fatal("CPU capture skipped with no competing profiler")
	}
	if len(w.CPU) == 0 {
		t.Fatal("no CPU profile bytes captured")
	}
	proftest.Raw(t, w.CPU)
	if w.Dur < 100*time.Millisecond {
		t.Errorf("window duration %v < requested 100ms", w.Dur)
	}
	if len(w.Heap) == 0 || len(w.Goroutine) == 0 {
		t.Errorf("missing heap/goroutine snapshots")
	}
	if w.Goroutines <= 0 {
		t.Errorf("goroutine count = %d", w.Goroutines)
	}
	if w.AllocDeltaBytes == 0 {
		t.Logf("alloc delta is zero (possible but unusual)")
	}
}

func TestCaptureSkipsWhenProfilerBusy(t *testing.T) {
	// Hold the process-wide CPU profiler the way /debug/pprof/profile
	// would, then ask the sampler for a window.
	f, err := os.CreateTemp(t.TempDir(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("profiler already busy: %v", err)
	}
	defer pprof.StopCPUProfile()

	reg := telemetry.NewRegistry()
	s := NewSampler(Options{Window: 10 * time.Millisecond, Capacity: 2, Registry: reg})
	w := s.Capture(10 * time.Millisecond)
	if !w.CPUSkipped {
		t.Fatal("expected CPUSkipped window while profiler busy")
	}
	if len(w.CPU) != 0 {
		t.Fatal("skipped window has CPU bytes")
	}
	if len(w.Heap) == 0 {
		t.Error("skipped window should still snapshot heap")
	}
	if got := reg.Counter("prof.windows_cpu_skipped").Value(); got != 1 {
		t.Errorf("windows_cpu_skipped = %d, want 1", got)
	}
}

func TestLabelsVisibleInCapturedProfile(t *testing.T) {
	s := NewSampler(Options{Window: 100 * time.Millisecond, Capacity: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		WithJobLabels(context.Background(), "j-000042", "trace-abc", "fp-1", func(ctx context.Context) {
			WithPhase(ctx, PhaseCG, func(context.Context) {
				for {
					select {
					case <-stop:
						return
					default:
						burnCPU(5 * time.Millisecond)
					}
				}
			})
		})
	}()
	// Retry: at 100Hz a 100ms window holds ~10 samples; one window is
	// normally enough but allow a few attempts to keep this robust on
	// loaded machines. The worker burns until the check is done, since
	// reading each window back through `go tool pprof` takes time too.
	var found bool
	for attempt := 0; attempt < 5 && !found; attempt++ {
		w := s.Capture(100 * time.Millisecond)
		if len(w.CPU) == 0 {
			continue
		}
		tags := proftest.Tags(t, w.CPU)
		if !slices.Contains(tags[LabelJobID], "j-000042") {
			continue
		}
		found = true
		if !slices.Contains(tags[LabelPhase], PhaseCG) {
			t.Errorf("window %d has job label but no phase=cg (tags=%v)", w.ID, tags)
		}
	}
	close(stop)
	wg.Wait()
	if !found {
		t.Fatal("no captured window carried job_id=j-000042")
	}
}

func TestIndexConsistentUnderConcurrentCaptureAndFetch(t *testing.T) {
	s := NewSampler(Options{Window: 5 * time.Millisecond, Gap: 1, Capacity: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: concurrent captures racing into the ring.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				s.Capture(5 * time.Millisecond)
			}
		}()
	}
	// Readers: list + get while captures are in flight.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ws := s.Windows()
				if len(ws) > 4 {
					t.Errorf("index returned %d windows, capacity 4", len(ws))
					return
				}
				var last uint64
				for _, w := range ws {
					if w.ID <= last {
						t.Errorf("index ids out of order: %d after %d", w.ID, last)
						return
					}
					last = w.ID
					if got := s.Window(w.ID); got != nil && got.ID != w.ID {
						t.Errorf("Window(%d) returned id %d", w.ID, got.ID)
						return
					}
				}
			}
		}()
	}
	// Wait for writers, then release readers.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done
	if n := s.ring.len(); n != 4 {
		t.Errorf("final ring len = %d, want 4", n)
	}
}

func TestStartStopNoLeak(t *testing.T) {
	// leakcheck.Main in TestMain asserts the process ends clean; this test
	// exercises the start/stop lifecycle including double start/stop.
	s := NewSampler(Options{Window: 10 * time.Millisecond, Gap: 5 * time.Millisecond, Capacity: 2})
	s.Start()
	s.Start() // idempotent
	time.Sleep(40 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	if len(s.Windows()) == 0 {
		t.Fatal("background loop captured no windows")
	}
	// Restart works.
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
}

func TestStopInterruptsWindow(t *testing.T) {
	s := NewSampler(Options{Window: 10 * time.Second, Gap: time.Hour, Capacity: 2})
	s.Start()
	time.Sleep(20 * time.Millisecond) // let the window start
	t0 := time.Now()
	s.Stop()
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Fatalf("Stop blocked %v; window sleep not interruptible", waited)
	}
}

func TestSamplerOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("duty-cycle timing test")
	}
	// The 2% CI budget is for the production cadence (one Window per
	// Window+Gap). Per-window bookkeeping is a near-fixed cost dominated
	// by StopCPUProfile's flush wait, so measure it on short windows
	// under load and project it onto the default cadence.
	s := NewSampler(Options{}) // default 10s window / 50s gap
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				burnCPU(5 * time.Millisecond)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		s.Capture(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	book := s.BookkeepingPerWindow()
	got := s.ProjectedOverheadPct()
	t.Logf("bookkeeping/window: %v, projected overhead at %v/%v cadence: %.4f%%",
		book, s.Opts().Window, s.Opts().Gap, got)
	if got >= 2.0 {
		t.Fatalf("projected sampler overhead %.3f%% >= 2%% budget (bookkeeping %v per window)", got, book)
	}
	if got == 0 {
		t.Fatal("no bookkeeping measured")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Window != 10*time.Second || o.Gap != 50*time.Second || o.Capacity != 32 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}
