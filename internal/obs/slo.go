package obs

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SLO kinds: which latency a series tracks. Warm and cold solves get
// separate objectives because the paper's whole cost model says they are
// different workloads — a cold solve pays the dominant FSAI(E) setup phase,
// a warm (cache-hit) solve is pure iteration time.
const (
	SLOWarmSolve = "warm_solve"
	SLOColdSolve = "cold_solve"
	SLOQueueWait = "queue_wait"
)

// SLOObjectives configures the monitor. The zero value gets
// production-shaped defaults from normalize.
type SLOObjectives struct {
	// WarmSolveP95 / ColdSolveP95 are the per-fingerprint latency
	// objectives for warm (cache-hit) and cold (setup-paying) solves;
	// QueueWaitP95 bounds admission wait. An event is "good" when its
	// latency is at or under the objective.
	WarmSolveP95 time.Duration
	ColdSolveP95 time.Duration
	QueueWaitP95 time.Duration

	// Target is the fraction of events that must meet the objective
	// (default 0.95). The error budget of a window is the (1-Target)
	// fraction of its events.
	Target float64

	// Window is the sliding window over which burn rate and budget are
	// computed (default 10 minutes).
	Window time.Duration

	// MinEvents is the number of window events a series needs before its
	// budget verdict can flip health (default 10) — one slow solve on a
	// fresh daemon is not an incident.
	MinEvents int
}

func (o *SLOObjectives) normalize() {
	if o.WarmSolveP95 <= 0 {
		o.WarmSolveP95 = 2 * time.Second
	}
	if o.ColdSolveP95 <= 0 {
		o.ColdSolveP95 = 30 * time.Second
	}
	if o.QueueWaitP95 <= 0 {
		o.QueueWaitP95 = 5 * time.Second
	}
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = 0.95
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Minute
	}
	if o.MinEvents <= 0 {
		o.MinEvents = 10
	}
}

// sloEvent is one observed latency inside the sliding window.
type sloEvent struct {
	at  time.Time
	bad bool
}

// sloSeries tracks one (fingerprint, kind) pair: the window events plus its
// registry series, the only full-history account: the latency histogram
// (telemetry.Histogram provides the p95), the event and breach counters,
// and the fingerprint's iteration-anomaly counter (one per fingerprint,
// shared by its series).
type sloSeries struct {
	fp, kind                   string
	objectiveNS                int64
	events                     []sloEvent
	hist                       *telemetry.Histogram
	total, breaches, anomalies *telemetry.Counter
	burn, budgetLeft           *telemetry.Gauge
}

// SLOMonitor tracks per-fingerprint latency objectives over a sliding
// window: each observed job contributes one event per applicable series,
// and the monitor answers with p95s (bucket-interpolated from
// telemetry.Histogram), burn rates and remaining error budget. A nil
// monitor is the valid "SLOs off" value — every method no-ops.
type SLOMonitor struct {
	mu     sync.Mutex
	obj    SLOObjectives
	series map[string]*sloSeries
	reg    *telemetry.Registry
	clock  func() time.Time
}

// NewSLOMonitor builds a monitor with the given objectives (zero fields
// defaulted). reg holds the slo_* series that Report reads; a nil reg
// turns counting off, and the report's totals and p95s read 0.
func NewSLOMonitor(obj SLOObjectives, reg *telemetry.Registry) *SLOMonitor {
	obj.normalize()
	reg.SetHelp("slo_latency_ns", "observed latency by matrix fingerprint and SLO kind")
	reg.SetHelp("slo_events", "SLO-tracked events by fingerprint and kind")
	reg.SetHelp("slo_breaches", "events that missed their latency objective")
	reg.SetHelp("slo_burn_rate", "window breach fraction over allowed fraction (1.0 = burning exactly the budget)")
	reg.SetHelp("slo_budget_remaining", "fraction of the window error budget left (0 = exhausted)")
	reg.SetHelp("slo_iteration_anomalies", "warm solves whose CG iteration count drifted above the cached baseline")
	return &SLOMonitor{
		obj:    obj,
		series: map[string]*sloSeries{},
		reg:    reg,
		clock:  time.Now,
	}
}

// SetClock replaces the monitor's time source (tests). Nil-safe.
func (m *SLOMonitor) SetClock(clock func() time.Time) {
	if m == nil || clock == nil {
		return
	}
	m.mu.Lock()
	m.clock = clock
	m.mu.Unlock()
}

// Objectives returns the normalized objective set the monitor runs with.
func (m *SLOMonitor) Objectives() SLOObjectives {
	if m == nil {
		return SLOObjectives{}
	}
	return m.obj
}

// ObserveSolve records one finished solve for fingerprint fp: warm selects
// the warm- vs cold-solve objective for solveNS, and queueWaitNS (when > 0
// or the queue objective is armed) lands in the queue-wait series.
// Nil-safe.
func (m *SLOMonitor) ObserveSolve(fp string, warm bool, solveNS, queueWaitNS int64) {
	if m == nil {
		return
	}
	kind, objective := SLOColdSolve, m.obj.ColdSolveP95
	if warm {
		kind, objective = SLOWarmSolve, m.obj.WarmSolveP95
	}
	m.observe(fp, kind, objective, solveNS)
	m.observe(fp, SLOQueueWait, m.obj.QueueWaitP95, queueWaitNS)
}

// RecordIterationAnomaly counts one warm-solve iteration drift for fp on
// its warm-solve series. Nil-safe.
func (m *SLOMonitor) RecordIterationAnomaly(fp string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	s := m.seriesLocked(fp, SLOWarmSolve, m.obj.WarmSolveP95)
	m.mu.Unlock()
	s.anomalies.Inc()
}

// seriesLocked returns the (fp, kind) series, taking its registry series
// on first use. The caller holds m.mu.
func (m *SLOMonitor) seriesLocked(fp, kind string, objective time.Duration) *sloSeries {
	key := fp + "|" + kind
	s, ok := m.series[key]
	if !ok {
		lbl := `{fp="` + fp + `",slo="` + kind + `"}`
		s = &sloSeries{
			fp: fp, kind: kind, objectiveNS: objective.Nanoseconds(),
			hist:       m.reg.Histogram("slo.latency_ns"+lbl, telemetry.ExpBuckets(1e5, 4, 14)),
			total:      m.reg.Counter("slo.events" + lbl),
			breaches:   m.reg.Counter("slo.breaches" + lbl),
			anomalies:  m.reg.Counter(`slo.iteration_anomalies{fp="` + fp + `"}`),
			burn:       m.reg.Gauge("slo.burn_rate" + lbl),
			budgetLeft: m.reg.Gauge("slo.budget_remaining" + lbl),
		}
		m.series[key] = s
	}
	return s
}

func (m *SLOMonitor) observe(fp, kind string, objective time.Duration, ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.seriesLocked(fp, kind, objective)
	now := m.clock()
	bad := ns > s.objectiveNS
	s.events = append(s.events, sloEvent{at: now, bad: bad})
	s.hist.Observe(float64(ns))
	s.total.Inc()
	if bad {
		s.breaches.Inc()
	}
	m.stateLocked(s, now.Add(-m.obj.Window))
}

// Refresh prunes every series' window and brings its burn-rate and budget
// gauges up to date, so a /metrics scrape reads what /slo reads even when
// no event arrived since a breach aged out. Nil-safe.
func (m *SLOMonitor) Refresh() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.clock().Add(-m.obj.Window)
	for _, s := range m.series {
		m.stateLocked(s, cutoff)
	}
}

// prune drops events older than cutoff (events are appended in time order).
func (s *sloSeries) prune(cutoff time.Time) {
	i := 0
	for i < len(s.events) && s.events[i].at.Before(cutoff) {
		i++
	}
	if i > 0 {
		s.events = append(s.events[:0], s.events[i:]...)
	}
}

// windowCounts returns (events, breaches) inside the current window.
func (s *sloSeries) windowCounts() (int, int) {
	n, bad := len(s.events), 0
	for _, e := range s.events {
		if e.bad {
			bad++
		}
	}
	return n, bad
}

// burnAndBudget derives the burn rate and remaining budget fraction for a
// window of n events with bad breaches under target. Burn rate 1.0 means
// breaching at exactly the allowed rate; remaining 0 means the window's
// budget is spent.
func burnAndBudget(n, bad int, target float64) (burn, remaining float64) {
	if n == 0 {
		return 0, 1
	}
	allowedFrac := 1 - target
	badFrac := float64(bad) / float64(n)
	burn = badFrac / allowedFrac
	remaining = 1 - burn
	if remaining < 0 {
		remaining = 0
	}
	return burn, remaining
}

// SLOSeriesState is one series of the GET /slo document.
type SLOSeriesState struct {
	Fingerprint string `json:"fingerprint"`
	SLO         string `json:"slo"`
	ObjectiveNS int64  `json:"objective_ns"`
	// P95NS is the bucket-interpolated p95 of every observation (full
	// history, not just the window) from the telemetry histogram.
	P95NS float64 `json:"p95_ns"`
	// WindowEvents/WindowBreaches count inside the sliding window;
	// TotalEvents/TotalBreaches since process start.
	WindowEvents   int   `json:"window_events"`
	WindowBreaches int   `json:"window_breaches"`
	TotalEvents    int64 `json:"total_events"`
	TotalBreaches  int64 `json:"total_breaches"`
	// BurnRate is windowed breach fraction / allowed fraction; 1.0 burns
	// the budget exactly. BudgetRemaining is 1 - BurnRate clamped at 0.
	BurnRate        float64 `json:"burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// Exhausted marks a series whose window spent its whole error budget
	// with at least MinEvents observations — the condition that degrades
	// /healthz.
	Exhausted bool `json:"exhausted"`
}

// SLOReport is the GET /slo document.
type SLOReport struct {
	Target    float64          `json:"target"`
	WindowS   float64          `json:"window_s"`
	MinEvents int              `json:"min_events"`
	Series    []SLOSeriesState `json:"series"`
	// IterationAnomalies counts warm-solve iteration drifts per
	// fingerprint (the silent-degradation detector).
	IterationAnomalies map[string]int64 `json:"iteration_anomalies,omitempty"`
}

// Report snapshots every tracked series. Nil-safe (empty report).
func (m *SLOMonitor) Report() SLOReport {
	if m == nil {
		return SLOReport{Series: []SLOSeriesState{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := SLOReport{
		Target:    m.obj.Target,
		WindowS:   m.obj.Window.Seconds(),
		MinEvents: m.obj.MinEvents,
		Series:    []SLOSeriesState{},
	}
	cutoff := m.clock().Add(-m.obj.Window)
	for _, s := range m.series {
		rep.Series = append(rep.Series, m.stateLocked(s, cutoff))
		if n := s.anomalies.Value(); n > 0 {
			if rep.IterationAnomalies == nil {
				rep.IterationAnomalies = map[string]int64{}
			}
			rep.IterationAnomalies[s.fp] = n
		}
	}
	return rep
}

// State returns the current state of one (fingerprint, kind) series.
func (m *SLOMonitor) State(fp, kind string) (SLOSeriesState, bool) {
	if m == nil {
		return SLOSeriesState{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.series[fp+"|"+kind]
	if !ok {
		return SLOSeriesState{}, false
	}
	return m.stateLocked(s, m.clock().Add(-m.obj.Window)), true
}

// stateLocked prunes one series' window and computes its state. It is the
// one place burn rate and budget are derived, and it sets the series'
// slo_burn_rate and slo_budget_remaining gauges from what it returns.
func (m *SLOMonitor) stateLocked(s *sloSeries, cutoff time.Time) SLOSeriesState {
	s.prune(cutoff)
	n, bad := s.windowCounts()
	burn, remaining := burnAndBudget(n, bad, m.obj.Target)
	s.burn.Set(burn)
	s.budgetLeft.Set(remaining)
	return SLOSeriesState{
		Fingerprint:     s.fp,
		SLO:             s.kind,
		ObjectiveNS:     s.objectiveNS,
		P95NS:           s.hist.Quantile(0.95),
		WindowEvents:    n,
		WindowBreaches:  bad,
		TotalEvents:     s.total.Value(),
		TotalBreaches:   s.breaches.Value(),
		BurnRate:        burn,
		BudgetRemaining: remaining,
		Exhausted:       remaining <= 0 && n >= m.obj.MinEvents,
	}
}

// Exhausted lists the series whose error budget is spent (short
// "fingerprint/kind" labels, for the /healthz reason). Nil-safe.
func (m *SLOMonitor) Exhausted() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.clock().Add(-m.obj.Window)
	var out []string
	for _, s := range m.series {
		st := m.stateLocked(s, cutoff)
		if st.Exhausted {
			fp := s.fp
			if len(fp) > 12 {
				fp = fp[:12]
			}
			out = append(out, fp+"/"+s.kind)
		}
	}
	return out
}
