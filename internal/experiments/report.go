package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cachesim"
	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/telemetry"
)

// The run report is the repo's stable machine-readable observability
// artifact: one JSON document per tool invocation carrying, for every
// (matrix, variant, filter) measurement, the per-phase setup spans, the
// per-iteration residual history and the solver's kernel-class timing
// breakdown, plus the campaign-wide metrics registry (iteration timing
// histograms). Perf PRs diff two reports to prove a before/after; the
// schema is versioned so old artifacts stay decodable or fail loudly.

// RunReportSchemaVersion is the current schema_version written by
// WriteRunReport. ReadRunReport accepts any version it can upgrade in place
// (RunReportMinSchemaVersion and later); newer or unknown versions fail
// loudly.
//
// Version history:
//
//	1: initial — entries with phases/history/timing, metrics, spmv_ops.
//	2: adds the per-entry "cache" miss-attribution section (optional).
//	3: adds the per-entry typed "status" and the "resilience" recovery
//	   section (both optional).
//	4: adds the per-entry "service" section (optional): the solve daemon's
//	   job id, matrix fingerprint, preconditioner-cache outcome and queue
//	   wait for reports produced by fsaid jobs.
//	5: adds request-trace correlation and SLO state (all optional): the
//	   top-level "trace_id" (fsaisolve runs), the service section's
//	   "trace_id" (fsaid jobs; resolves against the daemon's /traces), and
//	   the per-entry "slo" section (objective, burn rate, remaining error
//	   budget and the warm-solve iteration-anomaly flag at write time).
//	6: adds the per-entry "roofline" section (optional): the solve's
//	   achieved GB/s and GFLOP/s per kernel class laid against the machine
//	   model's roofs, the matrix's rolling bandwidth baseline and the
//	   low-bandwidth flag. The numbers mirror the roofline_* Prometheus
//	   gauges for the same job.
//	7: adds multi-RHS accounting (all optional): the per-entry "nrhs"
//	   (right-hand sides solved together; absent/0 means 1) and the "batch"
//	   section for entries produced as one column of the solve daemon's
//	   batched block solve (batch id, block width, amortized per-RHS wall
//	   time, achieved spmm arithmetic intensity). Roofline kernels gain the
//	   "spmm" class for batched solves, and the top-level "op_classes"
//	   section splits the op/byte counters by kernel class
//	   (spmv/spmm/blas1).
//	   The op-counter sections ("spmv_ops", "op_classes" and the cache
//	   section's "measured_ai") have since been dropped without a version
//	   bump: they were optional, and the per-entry "roofline" section is
//	   the one work account. Older reports carrying them still decode;
//	   the fields are ignored.
const RunReportSchemaVersion = 7

// RunReportMinSchemaVersion is the oldest schema ReadRunReport upgrades.
const RunReportMinSchemaVersion = 1

// RunReport is the top-level run-report document.
type RunReport struct {
	Schema    int    `json:"schema_version"`
	Tool      string `json:"tool"`
	Machine   string `json:"machine,omitempty"`
	LineBytes int    `json:"line_bytes,omitempty"`

	// TraceID is the run's request-trace identifier (schema v5, optional):
	// stamped by tools that trace their own execution (fsaisolve) so the
	// report correlates with log lines carrying the same id. Reports from
	// fsaid jobs carry the id in the service section instead.
	TraceID string `json:"trace_id,omitempty"`

	Entries []RunEntry `json:"entries"`

	// Metrics is the solver-wide registry snapshot: per-iteration
	// SpMV/precond/BLAS-1 nanosecond histograms and iteration counters.
	Metrics *telemetry.RegistrySnapshot `json:"metrics,omitempty"`
}

// RunTiming is the solver timing breakdown in nanoseconds.
type RunTiming struct {
	SpMVNS    int64 `json:"spmv_ns"`
	PrecondNS int64 `json:"precond_ns"`
	BLAS1NS   int64 `json:"blas1_ns"`
	TotalNS   int64 `json:"total_ns"`
}

// RunEntry is one (matrix, variant, filter) measurement.
type RunEntry struct {
	MatrixID int    `json:"matrix_id"`
	Matrix   string `json:"matrix"`
	Type     string `json:"type,omitempty"`
	Rows     int    `json:"rows"`
	NNZ      int    `json:"nnz"`

	Variant string  `json:"variant"`
	Filter  float64 `json:"filter"`

	NNZG   int     `json:"nnz_g"`
	ExtPct float64 `json:"ext_pct"`

	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`

	// Status is the typed solver termination ("converged", "max-iter",
	// "indefinite-curvature", "nan-or-inf", "stagnation", "cancelled";
	// schema v3, optional — absent in upgraded older reports).
	Status string `json:"status,omitempty"`

	// SetupPhases lists the Algorithm 3-4 phase wall times in execution
	// order (extend/precalc/filter repeat for FSAIE(full)'s second pass).
	SetupPhases []fsai.PhaseTiming `json:"setup_phases,omitempty"`
	SetupWallNS int64              `json:"setup_wall_ns"`
	SolveWallNS int64              `json:"solve_wall_ns"`

	// History holds per-iteration relative residuals (index 0 is the unit
	// initial residual) when recorded.
	History []float64 `json:"history,omitempty"`

	// Timing is the solver kernel-class breakdown when collected.
	Timing *RunTiming `json:"timing,omitempty"`

	// Cache is the simulated x-access miss attribution of the GᵀGp
	// preconditioner application (schema v2, optional).
	Cache *RunCacheAttrib `json:"cache,omitempty"`

	// Resilience is the recovery record of a fault-aware solve (schema v3,
	// optional): what the solver had to do — shift retries, preconditioner
	// fallbacks, warm restarts — to produce this entry's result.
	Resilience *RunResilience `json:"resilience,omitempty"`

	// Service is the solve-daemon context of an fsaid job (schema v4,
	// optional): absent for CLI runs.
	Service *RunService `json:"service,omitempty"`

	// SLO is the latency-objective verdict of an fsaid job (schema v5,
	// optional): absent for CLI runs and for daemons without SLO state.
	SLO *RunSLO `json:"slo,omitempty"`

	// Roofline is the live roofline placement of this solve (schema v6,
	// optional): absent when kernel timing was not collected.
	Roofline *RunRoofline `json:"roofline,omitempty"`

	// NRHS is the number of right-hand sides solved together (schema v7,
	// optional): 0 or absent means a single-RHS solve. Wall times are for
	// the whole block; divide by NRHS for per-RHS cost.
	NRHS int `json:"nrhs,omitempty"`

	// Batch is the solve daemon's batching section (schema v7, optional):
	// present when this entry's job executed as one column of a batched
	// block solve.
	Batch *RunBatch `json:"batch,omitempty"`
}

// RunBatch records how an fsaid job's solve cost amortized inside a batched
// block solve (schema v7).
type RunBatch struct {
	// ID names the batch execution; Size its block width (number of jobs
	// solved in one admission slot); Column this job's column index.
	ID     string `json:"id"`
	Size   int    `json:"size"`
	Column int    `json:"column"`
	// WindowWaitNS is this job's time in the open batch window; SolveWallNS
	// the whole block solve's wall time; PerRHSNS the amortized per-job
	// share (SolveWallNS / Size).
	WindowWaitNS int64 `json:"window_wait_ns"`
	SolveWallNS  int64 `json:"solve_wall_ns"`
	PerRHSNS     int64 `json:"per_rhs_ns"`
	// AchievedAI is the batch's spmm arithmetic intensity (flop/byte).
	AchievedAI float64 `json:"achieved_ai,omitempty"`
}

// RunRoofline is the report's live-roofline section (schema v6): the
// solve's per-kernel achieved bandwidth and flop rate against the machine
// model, exactly the values the roofline_* gauges exported for the job —
// report and /metrics must agree for the same job id.
type RunRoofline struct {
	// Machine is the arch model the kernels are priced against.
	Machine string `json:"machine"`
	// Kernels holds the per-kernel-class placements (spmv, apply_g, blas1).
	Kernels []roofline.Achieved `json:"kernels"`
	// BaselineBandwidthBytes is the matrix's rolling SpMV-bandwidth
	// baseline before this solve (0 until established).
	BaselineBandwidthBytes float64 `json:"baseline_bandwidth_bytes,omitempty"`
	// LowBandwidth marks a solve >30% below that baseline.
	LowBandwidth bool `json:"low_bandwidth,omitempty"`
}

// RunService is the report's solve-daemon section: which job produced the
// entry, on which registered operator, and whether the preconditioner came
// from the cache. A "hit" entry pairs with SetupWallNS == 0 — the warm
// solve paid no setup; that invariant is what the service-smoke test
// asserts.
type RunService struct {
	JobID string `json:"job_id"`
	// TraceID is the job's request-trace id (schema v5, optional): the
	// daemon serves the matching span tree on GET /traces/<trace-id> and
	// logs the job under the same id.
	TraceID string `json:"trace_id,omitempty"`
	// Fingerprint is the registry handle of the operator (sparse.CSR
	// content fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Cache is the preconditioner-cache outcome: "hit" (a cached factor,
	// no setup paid), "miss" (a cached factor this job paid to build) or
	// "uncached" (none/jacobi, or a resilient job that used no cached
	// factor).
	Cache string `json:"cache"`
	// QueueWaitNS is how long the job waited for a concurrency slot.
	QueueWaitNS int64 `json:"queue_wait_ns"`
}

// RunSLO is the report's latency-objective section (schema v5): how this
// entry's solve latency compared to its fingerprint's objective, and where
// the sliding-window error budget stood right after the observation.
type RunSLO struct {
	// Kind is the objective the solve was judged against ("warm_solve" for
	// cache hits, "cold_solve" otherwise).
	Kind string `json:"kind"`
	// ObjectiveNS is the latency objective; LatencyNS what the solve took
	// (setup + solve, excluding queue wait); Met whether it was in budget.
	ObjectiveNS int64 `json:"objective_ns"`
	LatencyNS   int64 `json:"latency_ns"`
	Met         bool  `json:"met"`
	// BurnRate / BudgetRemaining snapshot the fingerprint's sliding-window
	// budget state including this solve (burn rate 1.0 = breaching at
	// exactly the allowed rate; remaining 0 = exhausted).
	BurnRate        float64 `json:"burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// IterAnomaly marks a warm solve whose CG iteration count drifted far
	// above the cached factor's baseline.
	IterAnomaly bool `json:"iter_anomaly,omitempty"`
}

// RunResilience is the report's recovery section: the requested and final
// preconditioner rungs, the counters, and the full attempt log.
type RunResilience struct {
	// Requested is the rung the solve started at; Final the rung that
	// produced the result.
	Requested string `json:"requested"`
	Final     string `json:"final"`
	// Shift is the diagonal shift the final setup needed (0: none).
	Shift float64 `json:"shift,omitempty"`
	// Retries / Fallbacks mirror the RecoveryLog counters; Recovered is
	// false for a clean first-attempt convergence.
	Retries   int  `json:"retries"`
	Fallbacks int  `json:"fallbacks"`
	Recovered bool `json:"recovered"`
	// Attempts is the ordered attempt log.
	Attempts []resilience.Attempt `json:"attempts,omitempty"`
}

// RunCacheSweep serializes one sweep's miss attribution (cachesim.SweepAttrib).
type RunCacheSweep struct {
	// Phase is "G" (the Gp product) or "GT" (the Gᵀp product).
	Phase       string `json:"phase"`
	BaseEntries int    `json:"base_entries"`
	FillEntries int    `json:"fill_entries"`
	BaseMisses  uint64 `json:"base_misses"`
	FillMisses  uint64 `json:"fill_misses"`
	// MissPerBaseNNZ/MissPerFillNNZ normalize each miss class by its own
	// entry count — the Section 4 claim is FillMissPerNNZ ≈ 0.
	MissPerBaseNNZ float64 `json:"miss_per_base_nnz"`
	MissPerFillNNZ float64 `json:"miss_per_fill_nnz"`
	// RowBlockMisses buckets misses by row region (BlockRows rows each).
	RowBlockMisses []uint64 `json:"row_block_misses,omitempty"`
}

// RunCacheAttrib is the per-entry cache section: the simulated miss
// attribution next to the modelled line-visit count, so both views of the
// same sweep sit side by side.
type RunCacheAttrib struct {
	LineBytes int `json:"line_bytes"`
	BlockRows int `json:"block_rows"`

	Sweeps []RunCacheSweep `json:"sweeps"`

	// SimMissPerNNZ is the cache-simulated (MissG+MissGT)/nnz(G) — the
	// Figure 3 metric as the simulator attributes it.
	SimMissPerNNZ float64 `json:"sim_miss_per_nnz"`
	// ModelLineVisitsPerNNZ is the perfmodel view: distinct x cache lines
	// visited per stored entry ((LVG+LVGT)/nnz(G)), the quantity the
	// cache-friendly extension holds constant.
	ModelLineVisitsPerNNZ float64 `json:"model_line_visits_per_nnz,omitempty"`
}

// RunCacheOf converts a cachesim attribution into the report's cache section.
// modelLVPerNNZ may be 0 when line visits were not counted.
func RunCacheOf(a *cachesim.PrecondAttrib, modelLVPerNNZ float64) *RunCacheAttrib {
	if a == nil {
		return nil
	}
	out := &RunCacheAttrib{
		LineBytes:             a.LineBytes,
		BlockRows:             a.BlockRows,
		SimMissPerNNZ:         a.MissPerNNZ(),
		ModelLineVisitsPerNNZ: modelLVPerNNZ,
	}
	for _, s := range []*cachesim.SweepAttrib{&a.G, &a.GT} {
		out.Sweeps = append(out.Sweeps, RunCacheSweep{
			Phase:          s.Phase,
			BaseEntries:    s.BaseEntries,
			FillEntries:    s.FillEntries,
			BaseMisses:     s.BaseMisses,
			FillMisses:     s.FillMisses,
			MissPerBaseNNZ: s.MissPerBaseNNZ(),
			MissPerFillNNZ: s.MissPerFillNNZ(),
			RowBlockMisses: append([]uint64(nil), s.RowBlockMisses...),
		})
	}
	return out
}

// RunResilienceOf converts a resilient-solve outcome into the report's
// recovery section. requested names the rung the caller asked for; nil in,
// nil out.
func RunResilienceOf(requested string, out *resilience.Outcome) *RunResilience {
	if out == nil {
		return nil
	}
	return &RunResilience{
		Requested: requested,
		Final:     out.Precond,
		Shift:     out.Shift,
		Retries:   out.Log.Retries,
		Fallbacks: out.Log.Fallbacks,
		Recovered: out.Recovered,
		Attempts:  out.Log.Attempts,
	}
}

// RunTimingOf serializes a solve's kernel-class timing into the report's
// timing section; nil when no timing was collected.
func RunTimingOf(t krylov.Timing) *RunTiming {
	if t == (krylov.Timing{}) {
		return nil
	}
	return &RunTiming{
		SpMVNS:    t.SpMV.Nanoseconds(),
		PrecondNS: t.Precond.Nanoseconds(),
		BLAS1NS:   t.BLAS1.Nanoseconds(),
		TotalNS:   t.Total.Nanoseconds(),
	}
}

// statusName renders a typed status for the report, leaving the field absent
// (empty) for the zero value so pre-taxonomy measurements stay unchanged.
func statusName(s krylov.Status) string {
	if s == krylov.StatusUnknown {
		return ""
	}
	return s.String()
}

func runEntryOf(mr *MatrixRaw, m *MethodRaw) RunEntry {
	var modelLV float64
	if m.NNZG > 0 {
		modelLV = float64(m.LVG+m.LVGT) / float64(m.NNZG)
	}
	return RunEntry{
		MatrixID:    mr.Spec.ID,
		Matrix:      mr.Spec.Name,
		Type:        mr.Spec.Type,
		Rows:        mr.Rows,
		NNZ:         mr.NNZ,
		Variant:     m.Variant.String(),
		Filter:      m.Filter,
		NNZG:        m.NNZG,
		ExtPct:      m.ExtPct,
		Iterations:  m.Iterations,
		Converged:   m.Converged,
		Status:      statusName(m.Status),
		SetupPhases: m.Stats.Phases,
		SetupWallNS: m.WallSetup.Nanoseconds(),
		SolveWallNS: m.WallSolve.Nanoseconds(),
		History:     m.History,
		Timing:      RunTimingOf(m.Timing),
		Cache:       RunCacheOf(m.CacheAttrib, modelLV),
	}
}

// BuildRunReport assembles the report for a raw campaign. tool names the
// producing command; machine/lineBytes describe the simulated target; reg
// may be nil.
func BuildRunReport(c *RawCampaign, tool, machine string, reg *telemetry.Registry) *RunReport {
	r := &RunReport{
		Schema:    RunReportSchemaVersion,
		Tool:      tool,
		Machine:   machine,
		LineBytes: c.Opts.L1.LineBytes,
	}
	for i := range c.Results {
		mr := &c.Results[i]
		r.Entries = append(r.Entries, runEntryOf(mr, &mr.FSAI))
		for j := range mr.Sp {
			r.Entries = append(r.Entries, runEntryOf(mr, &mr.Sp[j]))
		}
		for j := range mr.Full {
			r.Entries = append(r.Entries, runEntryOf(mr, &mr.Full[j]))
		}
	}
	if reg != nil {
		snap := reg.Snapshot()
		r.Metrics = &snap
	}
	return r
}

// WriteRunReport serializes the report to w as indented JSON, stamping the
// current schema version.
func WriteRunReport(w io.Writer, r *RunReport) error {
	r.Schema = RunReportSchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRunReport decodes and validates a run report. Older schema versions
// are upgraded in place (every v2 addition is optional, so a v1 document is
// a valid v2 document with no cache sections); newer or unknown versions are
// rejected so downstream tooling never silently misreads an artifact.
func ReadRunReport(rd io.Reader) (*RunReport, error) {
	var r RunReport
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("run report: %w", err)
	}
	switch {
	case r.Schema < RunReportMinSchemaVersion:
		return nil, fmt.Errorf("run report: schema_version %d predates the oldest upgradable version %d",
			r.Schema, RunReportMinSchemaVersion)
	case r.Schema > RunReportSchemaVersion:
		return nil, fmt.Errorf("run report: schema_version %d, tool supports at most %d",
			r.Schema, RunReportSchemaVersion)
	}
	r.Schema = RunReportSchemaVersion
	return &r, nil
}

// ReadRunReportFile reads and upgrades the run report at path.
func ReadRunReportFile(path string) (*RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadRunReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// WriteRunReportFile writes the report to path atomically: the JSON goes to
// a temporary file in the same directory which is renamed over the target
// only after a successful write, so a mid-run failure can never truncate an
// existing report.
func WriteRunReportFile(path string, r *RunReport) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteRunReport(tmp, r); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
