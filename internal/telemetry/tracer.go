package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Tracer records a tree of named timed spans (phases). It is designed for
// phase-level tracing on an orchestrating goroutine: spans opened while
// another span is open become its children. Worker goroutines inside a phase
// are not traced individually — the phase span covers them.
//
// A nil *Tracer is the "tracing off" value: StartSpan returns a nil *Span
// and every method is a no-op, so instrumentation sites need no guards.
//
// When a root span (one with no parent) ends and the tracer has a sink, the
// finished tree is rendered to the sink immediately — a live trace log.
type Tracer struct {
	mu    sync.Mutex
	sink  io.Writer
	stack []*Span
	roots []*Span
	clock func() time.Time
}

// NewTracer returns a tracer that renders finished root spans to sink
// (pass nil to only collect for Report).
func NewTracer(sink io.Writer) *Tracer {
	return &Tracer{sink: sink, clock: time.Now}
}

// Span is one timed phase. End it exactly once.
type Span struct {
	tr       *Tracer
	parent   *Span
	Name     string
	start    time.Time
	dur      time.Duration
	done     bool
	attrs    []Attr
	children []*Span
}

// Attr is one string key/value annotation on a span.
type Attr struct {
	Key, Val string
}

// SetAttr annotates the span with a key/value pair (last write per key
// wins at snapshot time). Nil-safe, so instrumentation sites need no
// guards; safe for concurrent use with other tracer operations.
func (s *Span) SetAttr(key, val string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.tr.mu.Unlock()
}

// StartSpan opens a new span as a child of the innermost open span (or as a
// root). Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tr: t, Name: name, start: t.clock()}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1]
		s.parent.children = append(s.parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// End closes the span and returns its duration. Nil-safe; ending a span
// also closes any children left open (defensive, keeps the tree sane).
func (s *Span) End() time.Duration {
	if s == nil || s.tr == nil {
		return 0
	}
	t := s.tr
	t.mu.Lock()
	now := t.clock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		open := t.stack[i]
		t.stack = t.stack[:i]
		if !open.done {
			open.done = true
			open.dur = now.Sub(open.start)
		}
		if open == s {
			break
		}
	}
	isRoot := s.parent == nil
	dur := s.dur
	sink := t.sink
	t.mu.Unlock()
	if isRoot && sink != nil {
		fmt.Fprint(sink, renderSpan(s, 0))
	}
	return dur
}

// Duration returns the span's recorded duration (0 while open or for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// SpanSnapshot is the serializable form of a finished span tree.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUnixNS is the span's wall-clock start (Unix nanoseconds), so
	// exported trees line up on a shared timeline.
	StartUnixNS int64             `json:"start_unix_ns,omitempty"`
	NS          int64             `json:"ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []SpanSnapshot    `json:"children,omitempty"`
}

func snapshotSpan(s *Span) SpanSnapshot {
	out := SpanSnapshot{Name: s.Name, StartUnixNS: s.start.UnixNano(), NS: s.dur.Nanoseconds()}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, snapshotSpan(c))
	}
	return out
}

// Report returns the finished root spans as serializable trees. Nil-safe.
func (t *Tracer) Report() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(t.roots))
	for _, s := range t.roots {
		if s.done {
			out = append(out, snapshotSpan(s))
		}
	}
	return out
}

// Reset discards all recorded and open spans. Nil-safe.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stack, t.roots = nil, nil
}

func renderSpan(s *Span, depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%-*s %12.3fms\n", strings.Repeat("  ", depth),
		32-2*depth, s.Name, float64(s.dur.Nanoseconds())/1e6)
	for _, c := range s.children {
		sb.WriteString(renderSpan(c, depth+1))
	}
	return sb.String()
}
