package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func sampleTrace(i int) *Trace {
	return &Trace{
		TraceID: fmt.Sprintf("%032x", i+1),
		SpanID:  fmt.Sprintf("%016x", i+1),
		JobID:   fmt.Sprintf("j-%06d", i+1),
		Status:  "converged",
		Root: telemetry.SpanSnapshot{
			Name: "solve-request", NS: 1000,
			Children: []telemetry.SpanSnapshot{{Name: "cg-solve", NS: 900}},
		},
	}
}

func TestRecorderRingEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(2, "", reg)
	for i := 0; i < 3; i++ {
		r.Record(sampleTrace(i))
	}
	if r.Len() != 2 {
		t.Fatalf("ring kept %d traces, capacity 2", r.Len())
	}
	if _, ok := r.Get(sampleTrace(0).TraceID); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	if _, ok := r.Get(sampleTrace(2).TraceID); !ok {
		t.Fatal("newest trace missing")
	}
	list := r.List()
	if len(list) != 2 || list[0].TraceID != sampleTrace(2).TraceID {
		t.Fatalf("List not most-recent-first: %+v", list)
	}
	if list[0].Spans != 2 {
		t.Fatalf("span count = %d, want 2", list[0].Spans)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trace.recorded"]; got != 3 {
		t.Fatalf("trace.recorded = %d, want 3", got)
	}
	if got := snap.Counters["trace.dropped"]; got != 1 {
		t.Fatalf("trace.dropped = %d, want 1", got)
	}
}

func TestRecorderJSONLExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	r := NewRecorder(8, path, telemetry.NewRegistry())
	for i := 0; i < 3; i++ {
		r.Record(sampleTrace(i))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("export file: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var tr Trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d not valid JSON: %v", n+1, err)
		}
		if tr.RecordedAt == "" {
			t.Fatalf("line %d missing recorded_at", n+1)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("JSONL has %d lines, want 3", n)
	}
}

// TestRecorderExportErrorKeepsTrace: an export path that cannot be written
// (here a directory) counts one trace_export_errors per Record, and the
// trace is still recorded and served.
func TestRecorderExportErrorKeepsTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(8, t.TempDir(), reg)
	for i := 0; i < 2; i++ {
		r.Record(sampleTrace(i))
	}
	if got := reg.Counter("trace.export_errors").Value(); got != 2 {
		t.Fatalf("trace_export_errors = %d, want 2", got)
	}
	if got := reg.Counter("trace.recorded").Value(); got != 2 {
		t.Fatalf("trace_recorded = %d, want 2", got)
	}
	if _, ok := r.Get(sampleTrace(1).TraceID); !ok {
		t.Fatal("a failed export dropped the trace")
	}
}

func TestRecorderSubscribe(t *testing.T) {
	r := NewRecorder(8, "", telemetry.NewRegistry())
	ch, cancel := r.Subscribe()
	defer cancel()
	want := sampleTrace(0)
	r.Record(want)
	select {
	case got := <-ch:
		if got.TraceID != want.TraceID {
			t.Fatalf("subscriber got %s, want %s", got.TraceID, want.TraceID)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber never notified")
	}
	cancel()
	r.Record(sampleTrace(1)) // must not panic or block after cancel
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(64, "", telemetry.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				r.Record(sampleTrace(g*16 + i))
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("kept %d traces, want 64", r.Len())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(sampleTrace(0))
	r.MalformedHeader()
	if r.Len() != 0 || len(r.List()) != 0 {
		t.Fatal("nil recorder must be empty")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil recorder Get must miss")
	}
	ch, cancel := r.Subscribe()
	cancel()
	select {
	case <-ch:
		t.Fatal("nil recorder channel must never fire")
	default:
	}
}
