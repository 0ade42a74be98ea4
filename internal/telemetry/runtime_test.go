package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPublishRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	PublishRuntimeMetrics(r)
	snap := r.Snapshot()
	for _, name := range []string{
		"go.goroutines",
		"go.heap.alloc_bytes",
		"go.heap.sys_bytes",
		"go.heap.objects",
		"go.gc.num",
		"go.gc.pause_total_ns",
	} {
		g, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q not published; have %v", name, snap.Gauges)
		}
		if name == "go.goroutines" && g < 1 {
			t.Errorf("go.goroutines = %v, want >= 1", g)
		}
		if name == "go.heap.alloc_bytes" && g <= 0 {
			t.Errorf("go.heap.alloc_bytes = %v, want > 0", g)
		}
	}
}

// TestPublishedLastGCPause: go.gc.last_pause_ns is the pause of the last
// GC that go.gc.num counts, and go.gc.pause_total_ns the pauses up to it,
// as a MemStats read that saw the same NumGC reports them.
func TestPublishedLastGCPause(t *testing.T) {
	r := NewRegistry()
	for range 10 {
		runtime.GC()
		PublishRuntimeMetrics(r)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if uint32(r.Gauge("go.gc.num").Value()) != ms.NumGC {
			continue // another GC finished between the publish and this read
		}
		want := float64(ms.PauseNs[(ms.NumGC+255)%256])
		if got := r.Gauge("go.gc.last_pause_ns").Value(); got != want {
			t.Fatalf("go_gc_last_pause_ns = %v after GC %d, MemStats says %v", got, ms.NumGC, want)
		}
		if got := r.Gauge("go.gc.pause_total_ns").Value(); got != float64(ms.PauseTotalNs) {
			t.Fatalf("go_gc_pause_total_ns = %v after GC %d, MemStats says %v", got, ms.NumGC, ms.PauseTotalNs)
		}
		return
	}
	t.Fatal("a GC finished between every publish and the read after it")
}

func TestPublishRuntimeMetricsNilRegistry(t *testing.T) {
	PublishRuntimeMetrics(nil) // must not panic
	stop := StartRuntimeMetrics(nil, time.Millisecond)
	stop()
	stop() // idempotent
}

func TestStartRuntimeMetricsSamples(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeMetrics(r, time.Millisecond)
	defer stop()
	// The first sample is synchronous; the gauge exists immediately.
	if _, ok := r.Snapshot().Gauges["go.goroutines"]; !ok {
		t.Fatal("no immediate sample")
	}
	stop()
	stop() // stopping twice is safe
}

func TestRuntimeMetricsInPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	PublishRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"go_heap_alloc_bytes",
		"go_gc_pause_total_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
