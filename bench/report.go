package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/telemetry"
)

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// contract is the part of BENCHMARK.json the benchmark reads: the metrics
// an untraced run's summary carries (end_to_end) and a traced run's
// (per_layer).
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// report collects what one run measured and whether its answers held.
// outcome and incorrect may be called from several goroutines; set only
// from the run's own.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	wrong             bool     // an answer failed verification
	errs              []string // first few failure reasons
	names             []string // metric names in the order they were set
	values            map[string]float64
	units             map[string]string
	spans             []telemetry.SpanSnapshot
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}}
}

// set records a metric; setting a name again replaces its value.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = v
	r.units[name] = unit
}

// outcome counts one attempted operation. A non-empty why marks it failed;
// wrong marks that the failure was an answer that did not verify.
func (r *report) outcome(op, why string, wrong bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if why == "" {
		return
	}
	r.failed++
	r.wrong = r.wrong || wrong
	if len(r.errs) < 5 {
		r.errs = append(r.errs, op+": "+why)
	}
}

// incorrect marks the run's outputs wrong for a reason not tied to one
// operation.
func (r *report) incorrect(why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong = true
	r.errs = append(r.errs, why)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints every recorded metric as "name value unit", then the JSON
// summary of the metrics in set as the last line. A metric of set that was
// not measured, or was measured in another unit, is an error. Any failed
// operation makes the run incorrect.
func (r *report) write(w io.Writer, set []metricDef) error {
	s := summary{Correct: !r.wrong && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if r.units[m.Name] != m.Unit {
			return fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", m.Name, r.units[m.Name], m.Unit)
		}
		s.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	for _, n := range r.names {
		fmt.Fprintf(w, "%s %.6g %s\n", n, r.values[n], r.units[n])
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace stores the run's metrics and spans as one JSON document.
func (r *report) writeTrace(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	metrics := make(map[string]metricValue, len(r.names))
	for _, n := range r.names {
		metrics[n] = metricValue{r.values[n], r.units[n]}
	}
	doc := struct {
		Workload string                   `json:"workload"`
		Seed     int64                    `json:"seed"`
		Metrics  map[string]metricValue   `json:"metrics"`
		Spans    []telemetry.SpanSnapshot `json:"spans"`
	}{workload, seed, metrics, r.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
