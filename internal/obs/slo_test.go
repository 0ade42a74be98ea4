package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixedClock is an injectable, manually advanced time source.
type fixedClock struct{ now time.Time }

func (c *fixedClock) Now() time.Time          { return c.now }
func (c *fixedClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFixedClock() *fixedClock              { return &fixedClock{now: time.Unix(1_700_000_000, 0)} }

func newTestMonitor(obj SLOObjectives) (*SLOMonitor, *fixedClock, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	m := NewSLOMonitor(obj, reg)
	clk := newFixedClock()
	m.SetClock(clk.Now)
	return m, clk, reg
}

func TestSLOObjectiveDefaults(t *testing.T) {
	m, _, _ := newTestMonitor(SLOObjectives{})
	obj := m.Objectives()
	if obj.Target != 0.95 || obj.Window != 10*time.Minute || obj.MinEvents != 10 {
		t.Fatalf("defaults not applied: %+v", obj)
	}
	if obj.WarmSolveP95 <= 0 || obj.ColdSolveP95 <= obj.WarmSolveP95 {
		t.Fatalf("cold objective should exceed warm: %+v", obj)
	}
}

func TestSLOBurnRateAndBudget(t *testing.T) {
	m, _, _ := newTestMonitor(SLOObjectives{
		WarmSolveP95: time.Millisecond,
		Target:       0.9, // allowed breach fraction: 0.1
		MinEvents:    2,
	})
	// 8 good, 2 bad out of 10 → breach fraction exactly the allowed 0.1:
	// burn rate 1.0, budget fully spent.
	for i := 0; i < 8; i++ {
		m.ObserveSolve("fpA", true, int64(500*time.Microsecond), 0)
	}
	for i := 0; i < 2; i++ {
		m.ObserveSolve("fpA", true, int64(5*time.Millisecond), 0)
	}
	st, ok := m.State("fpA", SLOWarmSolve)
	if !ok {
		t.Fatal("series missing")
	}
	if st.WindowEvents != 10 || st.WindowBreaches != 2 {
		t.Fatalf("window counts = %d/%d, want 10/2", st.WindowEvents, st.WindowBreaches)
	}
	if st.BurnRate < 1.999 || st.BurnRate > 2.001 {
		t.Fatalf("burn rate = %g, want 2.0 (0.2 breach over 0.1 allowed)", st.BurnRate)
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %g, want 0", st.BudgetRemaining)
	}
	if !st.Exhausted {
		t.Fatal("series should be exhausted (remaining 0, enough events)")
	}
	if st.P95NS <= 0 {
		t.Fatal("p95 missing from histogram")
	}
}

func TestSLOWindowSlidesBreachesOut(t *testing.T) {
	m, clk, _ := newTestMonitor(SLOObjectives{
		WarmSolveP95: time.Millisecond,
		Window:       time.Minute,
		MinEvents:    1,
	})
	m.ObserveSolve("fp", true, int64(time.Second), 0) // breach
	if st, _ := m.State("fp", SLOWarmSolve); !st.Exhausted {
		t.Fatalf("expected exhaustion right after the breach: %+v", st)
	}
	clk.Advance(2 * time.Minute) // breach falls out of the window
	m.ObserveSolve("fp", true, int64(100*time.Microsecond), 0)
	st, _ := m.State("fp", SLOWarmSolve)
	if st.WindowEvents != 1 || st.WindowBreaches != 0 {
		t.Fatalf("window did not slide: %+v", st)
	}
	if st.Exhausted || st.BudgetRemaining != 1 {
		t.Fatalf("budget should be fully restored: %+v", st)
	}
	if st.TotalEvents != 2 || st.TotalBreaches != 1 {
		t.Fatalf("lifetime totals wrong: %+v", st)
	}
}

// TestSLOGaugesMatchReportAfterBreachAgesOut: a /metrics scrape reads the
// burn rate and budget /slo reports, also once a breach has aged out of the
// window with no event since. The scrape comes first, so nothing but its
// own refresh can have brought the gauges up to date.
func TestSLOGaugesMatchReportAfterBreachAgesOut(t *testing.T) {
	m, clk, reg := newTestMonitor(SLOObjectives{
		WarmSolveP95: time.Millisecond,
		Window:       time.Minute,
		MinEvents:    1,
	})
	srv := NewServer(Options{Registry: reg, SLO: m})
	defer srv.Shutdown(t.Context())
	serve := func(path string) []byte {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("%s status %d", path, rr.Code)
		}
		return rr.Body.Bytes()
	}
	gauge := func(text, series string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("%s missing from /metrics:\n%s", series, text)
		return 0
	}

	m.ObserveSolve("fp", true, int64(time.Second), 0) // breach
	clk.Advance(2 * time.Minute)                      // the breach ages out

	text := string(serve("/metrics"))
	var rep SLOReport
	if err := json.Unmarshal(serve("/slo"), &rep); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("/slo series = %+v, want warm_solve and queue_wait", rep.Series)
	}
	for _, st := range rep.Series {
		if st.BurnRate != 0 || st.BudgetRemaining != 1 {
			t.Fatalf("/slo %s after the window = %+v, want burn 0 and budget 1", st.SLO, st)
		}
		lbl := `{fp="` + st.Fingerprint + `",slo="` + st.SLO + `"}`
		if got := gauge(text, "slo_burn_rate"+lbl); got != st.BurnRate {
			t.Errorf("slo_burn_rate%s = %g, /slo burn_rate = %g", lbl, got, st.BurnRate)
		}
		if got := gauge(text, "slo_budget_remaining"+lbl); got != st.BudgetRemaining {
			t.Errorf("slo_budget_remaining%s = %g, /slo budget_remaining = %g", lbl, got, st.BudgetRemaining)
		}
	}
}

func TestSLOWarmColdAndQueueSeries(t *testing.T) {
	m, _, _ := newTestMonitor(SLOObjectives{MinEvents: 1})
	m.ObserveSolve("fp", true, int64(time.Millisecond), int64(time.Millisecond))
	m.ObserveSolve("fp", false, int64(time.Second), int64(2*time.Millisecond))
	rep := m.Report()
	kinds := map[string]bool{}
	for _, s := range rep.Series {
		kinds[s.SLO] = true
	}
	for _, want := range []string{SLOWarmSolve, SLOColdSolve, SLOQueueWait} {
		if !kinds[want] {
			t.Fatalf("report missing %q series: %+v", want, rep.Series)
		}
	}
	q, ok := m.State("fp", SLOQueueWait)
	if !ok || q.WindowEvents != 2 {
		t.Fatalf("queue series should see both jobs: %+v", q)
	}
}

func TestSLOMinEventsGatesExhaustion(t *testing.T) {
	m, _, _ := newTestMonitor(SLOObjectives{WarmSolveP95: time.Millisecond, MinEvents: 5})
	m.ObserveSolve("fp", true, int64(time.Second), 0) // one slow solve on a fresh daemon
	if st, _ := m.State("fp", SLOWarmSolve); st.Exhausted {
		t.Fatal("one breach below MinEvents must not exhaust the budget")
	}
	if got := m.Exhausted(); len(got) != 0 {
		t.Fatalf("Exhausted() = %v, want empty", got)
	}
}

func TestSLOIterationAnomalies(t *testing.T) {
	m, _, reg := newTestMonitor(SLOObjectives{})
	m.RecordIterationAnomaly("fp")
	m.RecordIterationAnomaly("fp")
	rep := m.Report()
	if rep.IterationAnomalies["fp"] != 2 {
		t.Fatalf("anomaly count = %d, want 2", rep.IterationAnomalies["fp"])
	}
	snap := reg.Snapshot()
	if snap.Counters[`slo.iteration_anomalies{fp="fp"}`] != 2 {
		t.Fatalf("anomaly counter missing: %+v", snap.Counters)
	}
}

func TestNilSLOMonitorIsSafe(t *testing.T) {
	var m *SLOMonitor
	m.ObserveSolve("fp", true, 1, 1)
	m.RecordIterationAnomaly("fp")
	m.SetClock(time.Now)
	m.Refresh()
	if got := m.Exhausted(); got != nil {
		t.Fatalf("nil Exhausted = %v", got)
	}
	rep := m.Report()
	if len(rep.Series) != 0 {
		t.Fatalf("nil Report has series: %+v", rep)
	}
}

func TestSLOEndpointServesReport(t *testing.T) {
	m, _, _ := newTestMonitor(SLOObjectives{MinEvents: 1})
	m.ObserveSolve("fp", false, int64(time.Millisecond), 0)
	srv := NewServer(Options{SLO: m})
	defer srv.Shutdown(t.Context())

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("/slo status %d", rr.Code)
	}
	var rep SLOReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	if rep.Target != 0.95 || len(rep.Series) == 0 {
		t.Fatalf("unexpected /slo document: %+v", rep)
	}
}

func TestSLOPrometheusSeriesHaveHelpAndType(t *testing.T) {
	m, _, reg := newTestMonitor(SLOObjectives{WarmSolveP95: time.Millisecond, MinEvents: 1})
	m.ObserveSolve("fp", true, int64(time.Second), int64(time.Millisecond))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{"slo_latency_ns", "slo_events", "slo_breaches", "slo_burn_rate", "slo_budget_remaining"} {
		if !strings.Contains(text, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}
	if !strings.Contains(text, `slo_burn_rate{fp="fp",slo="warm_solve"}`) {
		t.Errorf("burn-rate gauge with labels missing from exposition:\n%s", text)
	}
}

// TestSLOBudgetExhaustionDegradesHealth is the induced-breach acceptance
// check: latency breaches past the error budget flip /healthz to degraded,
// and recovery restores ok.
func TestSLOBudgetExhaustionDegradesHealth(t *testing.T) {
	m, clk, _ := newTestMonitor(SLOObjectives{
		WarmSolveP95: time.Millisecond,
		Window:       time.Minute,
		MinEvents:    2,
	})
	srv := NewServer(Options{SLO: m})
	defer srv.Shutdown(t.Context())

	if h := srv.HealthState(); h.Status != HealthOK {
		t.Fatalf("fresh server health = %s, want ok", h.Status)
	}
	// Induce the breach: every warm solve blows the 1ms objective.
	for i := 0; i < 3; i++ {
		m.ObserveSolve("fp", true, int64(50*time.Millisecond), 0)
	}
	h := srv.HealthState()
	if h.Status != HealthDegraded {
		t.Fatalf("health after budget exhaustion = %s, want degraded", h.Status)
	}
	if !strings.Contains(h.Reason, "SLO error budget exhausted") ||
		!strings.Contains(h.Reason, SLOWarmSolve) {
		t.Fatalf("reason does not name the series: %q", h.Reason)
	}

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 { // degraded serves 200 (alive), only failing is 503
		t.Fatalf("/healthz status %d", rr.Code)
	}
	var doc Health
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if doc.Status != HealthDegraded {
		t.Fatalf("/healthz body status = %q, want degraded", doc.Status)
	}

	// Breaches age out of the window → budget restored → ok again.
	clk.Advance(2 * time.Minute)
	for i := 0; i < 3; i++ {
		m.ObserveSolve("fp", true, int64(100*time.Microsecond), 0)
	}
	if h := srv.HealthState(); h.Status != HealthOK {
		t.Fatalf("health after recovery = %s, want ok", h.Status)
	}
}
