package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("counter not cached by name")
	}

	g := r.Gauge("temp")
	g.Set(1.5)
	g.Set(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Fatalf("gauge = %g, want -2.25", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("hist sum = %g, want 555.5", h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	if want := []int64{1, 1, 1}; len(hs.Counts) != 3 || hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] {
		t.Fatalf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", hs.Overflow)
	}
	if snap.Counters["ops"] != 4 || snap.Gauges["temp"] != -2.25 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	h := r.Histogram("z", []float64{1})
	h.Observe(2)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Histogram("h", ExpBuckets(1, 10, 4)).Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("concurrent hist count = %d, want 8000", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 10, 4)
	want := []float64{100, 1000, 10000, 100000}
	if len(b) != len(want) {
		t.Fatalf("len = %d", len(b))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	if ExpBuckets(1, 2, 0) != nil {
		t.Fatal("n=0 should be nil")
	}
}
