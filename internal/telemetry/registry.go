// Package telemetry is the repo's zero-dependency observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms) and a
// hierarchical span tracer with an io.Writer-pluggable sink.
//
// The paper's whole argument is a cost breakdown — setup phases weighed
// against per-iteration SpMV cost — so every layer that does real work
// (core setup, the Krylov loop, the sparse kernels) reports into this
// package, and the CLIs export the result as a versioned machine-readable
// run report (see internal/experiments.RunReport).
//
// Design constraints:
//
//   - Zero overhead when off: every entry point is nil-safe, so callers hold
//     a possibly-nil *Registry or *Tracer and instrument unconditionally;
//     the disabled path is a single pointer test.
//   - Concurrency-safe: counters, gauges and histogram buckets are atomics;
//     registration takes a mutex but lookups after the first call are
//     expected to be cached by the caller.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. An observation lands in the first
// bucket whose upper bound is >= the value; values above every bound land in
// the implicit overflow bucket. Sum and count are tracked exactly (the sum
// as integer nanos/units via atomic adds on the scaled value).
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []atomic.Int64
	over   atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits accumulated via CAS
}

// newHistogram builds a histogram with the given sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns the bucket-interpolated q-quantile of the observations
// (see HistogramSnapshot.Quantile). Nil-safe: returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	s := HistogramSnapshot{
		Bounds:   h.bounds,
		Counts:   make([]int64, len(h.counts)),
		Overflow: h.over.Load(),
		Count:    h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s.Quantile(q)
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor², …,
// the usual latency-histogram ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a name-keyed collection of metrics. The zero value is NOT
// ready; use NewRegistry. A nil *Registry is a valid "telemetry off" value:
// every lookup returns nil, and the nil metric methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	helps  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		helps:  map[string]string{},
	}
}

// SetHelp records a help string for a metric family — the metric name with
// any {label} suffix stripped — rendered by WritePrometheus as the # HELP
// line. Nil-safe.
func (r *Registry) SetHelp(family, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[family] = help
}

// helpFor returns the recorded help string for a family ("" if none).
func (r *Registry) helpFor(family string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.helps[family]
}

// Counter returns the counter with the given name, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket upper bounds on first use (later calls ignore bounds).
// Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
}

// Quantile returns the bucket-interpolated q-quantile (q in [0,1], clamped)
// of the recorded distribution, following the usual Prometheus
// histogram_quantile convention:
//
//   - an empty histogram yields 0;
//   - within the selected bucket the value is interpolated linearly between
//     the previous upper bound (0 for the first bucket) and the bucket's own
//     bound;
//   - observations beyond the last finite bound (the overflow bucket, or an
//     explicit +Inf bucket) report the last finite bound — the histogram
//     carries no information above it.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	lastFinite := 0.0
	var cum int64
	lower := 0.0
	for i, b := range s.Bounds {
		c := s.Counts[i]
		if c > 0 && float64(cum)+float64(c) >= rank {
			if math.IsInf(b, 1) {
				return lastFinite
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (b-lower)*frac
		}
		cum += c
		lower = b
		if !math.IsInf(b, 1) {
			lastFinite = b
		}
	}
	// Quantile falls in the overflow bucket (or every counted observation
	// did): the last finite bound is the best statement the data supports.
	return lastFinite
}

// RegistrySnapshot is the serializable state of a whole registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ctrs) > 0 {
		snap.Counters = make(map[string]int64, len(r.ctrs))
		for name, c := range r.ctrs {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds:   append([]float64(nil), h.bounds...),
				Counts:   make([]int64, len(h.counts)),
				Overflow: h.over.Load(),
				Count:    h.Count(),
				Sum:      h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}
