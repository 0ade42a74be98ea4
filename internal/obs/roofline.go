// Live roofline telemetry: per-solve achieved GB/s and GFLOP/s per kernel
// class laid against the machine's roofs, with a per-matrix rolling
// bandwidth baseline that flags silently degraded solves. This is the
// paper's Fig.-4 placement computed continuously from production solves
// instead of once from the offline model.
package obs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/roofline"
	"repro/internal/telemetry"
)

// rooflineBaselineAlpha is the EWMA weight of the newest observation in the
// per-matrix bandwidth baseline.
const rooflineBaselineAlpha = 0.3

// RooflineLowBandwidthFraction is the flag threshold: a solve whose SpMV
// achieved bandwidth lands below this fraction of the matrix's rolling
// baseline is flagged (">30% below baseline").
const RooflineLowBandwidthFraction = 0.7

// rooflineMinObservations is how many prior solves a matrix needs before
// the baseline is trusted enough to flag.
const rooflineMinObservations = 3

// RooflineSolve is the recorded roofline placement of one solve.
type RooflineSolve struct {
	JobID       string              `json:"job_id,omitempty"`
	Fingerprint string              `json:"fingerprint"`
	Machine     string              `json:"machine"`
	Iterations  int                 `json:"iterations"`
	Kernels     []roofline.Achieved `json:"kernels"`
	// BaselineBandwidthBytes is the matrix's rolling SpMV bandwidth
	// baseline *before* this solve was folded in (0 until established).
	BaselineBandwidthBytes float64 `json:"baseline_bandwidth_bytes,omitempty"`
	// LowBandwidth marks a solve whose SpMV bandwidth fell more than 30%
	// below the baseline.
	LowBandwidth bool      `json:"low_bandwidth,omitempty"`
	Time         time.Time `json:"time"`
}

// rooflineSeries is the per-fingerprint rolling state.
type rooflineSeries struct {
	fp           string
	observations int64
	baselineBW   float64            // EWMA of spmv achieved bandwidth
	flagged      *telemetry.Counter // roofline.low_bandwidth_solves{fp}
	latest       RooflineSolve
}

// RooflineMonitor aggregates per-solve roofline estimates: it exports the
// roofline_* gauges, keeps a per-matrix rolling bandwidth baseline, and
// serves the /roofline summary. A nil monitor no-ops everywhere.
type RooflineMonitor struct {
	mu      sync.Mutex
	machine arch.Arch
	reg     *telemetry.Registry
	series  map[string]*rooflineSeries
	clock   func() time.Time
}

// NewRooflineMonitor builds a monitor for the given machine model. reg
// holds the roofline_* series, whose low-bandwidth counter Report reads; a
// nil reg turns counting off.
func NewRooflineMonitor(machine arch.Arch, reg *telemetry.Registry) *RooflineMonitor {
	reg.SetHelp("roofline_achieved_bandwidth_bytes", "achieved memory bandwidth of the last solve, B/s by kernel class and matrix fingerprint")
	reg.SetHelp("roofline_achieved_flops", "achieved flop rate of the last solve, flop/s by kernel class and matrix fingerprint")
	reg.SetHelp("roofline_pct_of_attainable", "achieved flops of the last solve as percent of the kernel's roofline bound")
	reg.SetHelp("roofline_baseline_bandwidth_bytes", "per-matrix rolling EWMA of SpMV achieved bandwidth, B/s")
	reg.SetHelp("roofline_low_bandwidth_solves", "solves whose SpMV bandwidth fell >30% below the matrix's rolling baseline")
	return &RooflineMonitor{
		machine: machine,
		reg:     reg,
		series:  map[string]*rooflineSeries{},
		clock:   time.Now,
	}
}

// Machine returns the machine model the monitor prices against (zero Arch
// for nil).
func (m *RooflineMonitor) Machine() arch.Arch {
	if m == nil {
		return arch.Arch{}
	}
	return m.machine
}

// shortFP shortens a fingerprint for label values, matching the SLO
// monitor's display convention.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Observe records one finished solve's roofline estimate and returns the
// enriched record (baseline, low-bandwidth flag). Nil-safe: a nil monitor
// returns the input wrapped unflagged.
func (m *RooflineMonitor) Observe(jobID, fp string, iters int, est []roofline.Achieved) RooflineSolve {
	rs := RooflineSolve{JobID: jobID, Fingerprint: fp, Iterations: iters, Kernels: est}
	if m == nil {
		return rs
	}
	rs.Machine = m.machine.Name
	m.mu.Lock()
	defer m.mu.Unlock()
	rs.Time = m.clock()

	var spmvBW float64
	for _, e := range est {
		if e.Kernel == roofline.KernelSpMV {
			spmvBW = e.AchievedBandwidthBytes
		}
	}

	lfp := shortFP(fp)
	sr := m.series[fp]
	if sr == nil {
		sr = &rooflineSeries{fp: fp,
			flagged: m.reg.Counter(`roofline.low_bandwidth_solves{fp="` + lfp + `"}`)}
		m.series[fp] = sr
	}
	rs.BaselineBandwidthBytes = sr.baselineBW
	if spmvBW > 0 && sr.observations >= rooflineMinObservations &&
		spmvBW < RooflineLowBandwidthFraction*sr.baselineBW {
		rs.LowBandwidth = true
		sr.flagged.Inc()
	}
	if spmvBW > 0 {
		// Fold into the EWMA after flagging, so a single slow solve is
		// judged against the history, not against itself. A persistent
		// regression does shift the baseline over time — the flag catches
		// the onset, the baseline then tracks the new normal.
		if sr.observations == 0 {
			sr.baselineBW = spmvBW
		} else {
			sr.baselineBW = rooflineBaselineAlpha*spmvBW + (1-rooflineBaselineAlpha)*sr.baselineBW
		}
		sr.observations++
	}
	sr.latest = rs

	if m.reg != nil {
		for _, e := range est {
			lbl := `{kernel="` + e.Kernel + `",fp="` + lfp + `"}`
			m.reg.Gauge("roofline.achieved_bandwidth_bytes" + lbl).Set(e.AchievedBandwidthBytes)
			m.reg.Gauge("roofline.achieved_flops" + lbl).Set(e.AchievedFlops)
			m.reg.Gauge("roofline.pct_of_attainable" + lbl).Set(e.PctOfAttainable)
		}
		m.reg.Gauge(`roofline.baseline_bandwidth_bytes{fp="` + lfp + `"}`).Set(sr.baselineBW)
	}
	return rs
}

// RooflineMatrixState is the /roofline per-matrix summary.
type RooflineMatrixState struct {
	Fingerprint            string        `json:"fingerprint"`
	Observations           int64         `json:"observations"`
	BaselineBandwidthBytes float64       `json:"baseline_bandwidth_bytes"`
	LowBandwidthSolves     int64         `json:"low_bandwidth_solves"`
	Latest                 RooflineSolve `json:"latest"`
}

// RooflineReport is the GET /roofline payload.
type RooflineReport struct {
	Machine struct {
		Name           string  `json:"name"`
		PeakFlops      float64 `json:"peak_flops"`
		BandwidthBytes float64 `json:"bandwidth_bytes"`
		RidgeAI        float64 `json:"ridge_ai"`
	} `json:"machine"`
	FlagThresholdFraction float64               `json:"flag_threshold_fraction"`
	Matrices              []RooflineMatrixState `json:"matrices"`
}

// Report summarizes the monitor state. Nil-safe (empty report).
func (m *RooflineMonitor) Report() RooflineReport {
	var rep RooflineReport
	rep.FlagThresholdFraction = RooflineLowBandwidthFraction
	rep.Matrices = []RooflineMatrixState{}
	if m == nil {
		return rep
	}
	rep.Machine.Name = m.machine.Name
	rep.Machine.PeakFlops = roofline.PeakFlops(m.machine)
	rep.Machine.BandwidthBytes = m.machine.MemBandwidth
	if m.machine.MemBandwidth > 0 {
		rep.Machine.RidgeAI = roofline.PeakFlops(m.machine) / m.machine.MemBandwidth
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sr := range m.series {
		rep.Matrices = append(rep.Matrices, RooflineMatrixState{
			Fingerprint:            sr.fp,
			Observations:           sr.observations,
			BaselineBandwidthBytes: sr.baselineBW,
			LowBandwidthSolves:     sr.flagged.Value(),
			Latest:                 sr.latest,
		})
	}
	sort.Slice(rep.Matrices, func(i, j int) bool {
		return rep.Matrices[i].Fingerprint < rep.Matrices[j].Fingerprint
	})
	return rep
}
