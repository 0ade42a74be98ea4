package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestTracerHierarchy(t *testing.T) {
	var sink strings.Builder
	tr := NewTracer(&sink)

	root := tr.StartSpan("setup")
	a := tr.StartSpan("base-pattern")
	time.Sleep(time.Millisecond)
	a.End()
	b := tr.StartSpan("extend")
	bb := tr.StartSpan("precalc")
	bb.End()
	b.End()
	root.End()

	report := tr.Report()
	if len(report) != 1 {
		t.Fatalf("roots = %d, want 1", len(report))
	}
	r := report[0]
	if r.Name != "setup" || len(r.Children) != 2 {
		t.Fatalf("tree = %+v", r)
	}
	if r.Children[0].Name != "base-pattern" || r.Children[1].Name != "extend" {
		t.Fatalf("children = %+v", r.Children)
	}
	if len(r.Children[1].Children) != 1 || r.Children[1].Children[0].Name != "precalc" {
		t.Fatalf("grandchildren = %+v", r.Children[1].Children)
	}
	if r.NS <= 0 || r.Children[0].NS <= 0 {
		t.Fatalf("durations not recorded: %+v", r)
	}
	if r.NS < r.Children[0].NS {
		t.Fatal("parent shorter than child")
	}

	out := sink.String()
	for _, want := range []string{"setup", "  base-pattern", "    precalc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sink rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTracerEndClosesOpenChildren(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.StartSpan("root")
	tr.StartSpan("leaked") // never ended explicitly
	root.End()
	report := tr.Report()
	if len(report) != 1 || len(report[0].Children) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report[0].Children[0].NS < 0 {
		t.Fatal("leaked child has negative duration")
	}
	next := tr.StartSpan("second-root")
	next.End()
	if len(tr.Report()) != 2 {
		t.Fatal("tracer not reusable after defensive close")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x")
	if s != nil {
		t.Fatal("nil tracer should produce nil span")
	}
	if d := s.End(); d != 0 {
		t.Fatal("nil span End should be 0")
	}
	if s.Duration() != 0 {
		t.Fatal("nil span Duration should be 0")
	}
	if tr.Report() != nil {
		t.Fatal("nil tracer report should be nil")
	}
	tr.Reset() // must not panic
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(nil)
	tr.StartSpan("a").End()
	tr.Reset()
	if len(tr.Report()) != 0 {
		t.Fatal("Reset should drop recorded spans")
	}
}

// BenchmarkNilSpan documents the disabled-path cost: a nil check only.
func BenchmarkNilSpan(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.StartSpan("x").End()
	}
}
