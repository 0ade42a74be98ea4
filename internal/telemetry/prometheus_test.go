package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	// Empty histogram.
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil quantile = %g, want 0", got)
	}
	empty := newHistogram([]float64{1, 2})
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}

	// Single bucket: uniform interpolation between 0 and the bound.
	single := newHistogram([]float64{10})
	for i := 0; i < 4; i++ {
		single.Observe(3)
	}
	if got := single.Quantile(0.5); got != 5 {
		t.Fatalf("single-bucket p50 = %g, want 5", got)
	}
	if got := single.Quantile(1); got != 10 {
		t.Fatalf("single-bucket p100 = %g, want 10", got)
	}

	// Two buckets: p50 at the boundary, p75 mid second bucket.
	h := newHistogram([]float64{1, 3})
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(2)
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %g, want 1", got)
	}
	if got := h.Quantile(0.75); got != 2 {
		t.Fatalf("p75 = %g, want 2 (midpoint of (1,3])", got)
	}

	// Out-of-range q clamps.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("q<0 not clamped: %g vs %g", got, h.Quantile(0))
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Fatalf("q>1 not clamped: %g vs %g", got, h.Quantile(1))
	}

	// Overflow bucket: quantiles above the last finite bound report it.
	over := newHistogram([]float64{1})
	over.Observe(100)
	over.Observe(100)
	if got := over.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %g, want last finite bound 1", got)
	}

	// Explicit +Inf bucket behaves like the overflow bucket.
	inf := newHistogram([]float64{1, math.Inf(1)})
	inf.Observe(0.5)
	inf.Observe(50)
	inf.Observe(50)
	if got := inf.Quantile(0.9); got != 1 {
		t.Fatalf("+Inf-bucket quantile = %g, want last finite bound 1", got)
	}
	if got := inf.Quantile(0); got != 0 {
		// rank 0 lands at frac 0 of the first bucket (0,1] → its lower edge.
		t.Fatalf("+Inf-bucket q0 = %g, want 0", got)
	}
}

func TestParseMetricName(t *testing.T) {
	fam, labels := parseMetricName("krylov.iter.spmv_ns")
	if fam != "krylov_iter_spmv_ns" || len(labels) != 0 {
		t.Fatalf("got %q %v", fam, labels)
	}
	fam, labels = parseMetricName(`cachesim.x_misses{phase="G",entries=fill}`)
	if fam != "cachesim_x_misses" {
		t.Fatalf("family = %q", fam)
	}
	if len(labels) != 2 || labels[0] != (labelPair{"phase", "G"}) || labels[1] != (labelPair{"entries", "fill"}) {
		t.Fatalf("labels = %v", labels)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`solve.iterations{variant="FSAIE(full)"}`).Add(42)
	r.Counter(`solve.iterations{variant="FSAI"}`).Add(58)
	r.Gauge("solve.relres").Set(1.5e-9)
	h := r.Histogram("krylov.iter.spmv_ns", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	r.SetHelp("solve_iterations", "PCG iterations per variant")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP solve_iterations PCG iterations per variant\n",
		"# TYPE solve_iterations counter\n",
		`solve_iterations{variant="FSAI"} 58` + "\n",
		`solve_iterations{variant="FSAIE(full)"} 42` + "\n",
		"# TYPE solve_relres gauge\n",
		"solve_relres 1.5e-09\n",
		"# TYPE krylov_iter_spmv_ns histogram\n",
		`krylov_iter_spmv_ns_bucket{le="100"} 1` + "\n",
		`krylov_iter_spmv_ns_bucket{le="1000"} 2` + "\n",
		`krylov_iter_spmv_ns_bucket{le="+Inf"} 3` + "\n",
		"krylov_iter_spmv_ns_sum 5550\n",
		"krylov_iter_spmv_ns_count 3\n",
		"# TYPE krylov_iter_spmv_ns_p50 gauge\n",
		"# TYPE krylov_iter_spmv_ns_p95 gauge\n",
		"# TYPE krylov_iter_spmv_ns_p99 gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// One header per family, not per labelled series.
	if strings.Count(out, "# TYPE solve_iterations counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
	// Nil registry writes nothing.
	var nilR *Registry
	sb.Reset()
	if err := nilR.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, sb.String())
	}
}
